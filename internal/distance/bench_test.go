package distance

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/predicate"
	"repro/internal/schema"
)

// benchAreas is the number of synthetic areas both distance benchmarks
// draw their pairs from.
const benchAreas = 20000

var (
	benchOnce     sync.Once
	benchProfiles []*Profile
	benchMetric   *Metric
	benchKernel   *Kernel
)

// benchFixture builds benchAreas workload-shaped access areas once:
// constraint lists drawn from a shared template pool with grid-snapped
// constants, so structurally identical lists recur the way templated
// SkyServer statements do, attached to varying relation sets. Every
// profile is compiled for the pointer path and appended to one kernel.
func benchFixture() ([]*Profile, *Metric, *Kernel) {
	benchOnce.Do(func() {
		stats := schema.NewStats()
		type numCol struct {
			name   string
			lo, hi float64
		}
		numCols := []numCol{
			{"PhotoObjAll.ra", 0, 360},
			{"PhotoObjAll.dec", -90, 90},
			{"Photoz.z", 0, 7},
			{"SpecObjAll.mjd", 50000, 58000},
			{"SpecObjAll.plate", 0, 12000},
			{"galSpecLine.sigma_balmer", 0, 500},
		}
		for _, c := range numCols {
			stats.SeedNumericContent(c.name, interval.Closed(c.lo, c.hi))
		}
		classes := []string{"STAR", "GALAXY", "QSO", "UNKNOWN"}
		stats.SeedCategorical("SpecObjAll.class", classes)
		tableSets := [][]string{
			{"PhotoObjAll"}, {"SpecObjAll"}, {"Photoz"},
			{"PhotoObjAll", "SpecObjAll"}, {"Photoz", "PhotoObjAll"}, {"galSpecLine", "SpecObjAll"},
		}
		ops := []predicate.Op{predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge, predicate.Eq}

		r := rand.New(rand.NewSource(42))
		randPred := func() predicate.Pred {
			switch r.Intn(10) {
			case 0:
				return predicate.Cols(numCols[r.Intn(len(numCols))].name, predicate.Eq, numCols[r.Intn(len(numCols))].name)
			case 1, 2:
				op := predicate.Eq
				if r.Intn(4) == 0 {
					op = predicate.Ne
				}
				return predicate.CC("SpecObjAll.class", op, predicate.Str(classes[r.Intn(len(classes))]))
			default:
				c := numCols[r.Intn(len(numCols))]
				v := c.lo + (c.hi-c.lo)*float64(r.Intn(41))/40
				return predicate.CC(c.name, ops[r.Intn(len(ops))], predicate.Number(v))
			}
		}
		pool := make([]predicate.CNF, benchAreas/16)
		for i := range pool {
			cnf := make(predicate.CNF, 2+r.Intn(4))
			for c := range cnf {
				cl := make(predicate.Clause, 1+r.Intn(4))
				for p := range cl {
					cl[p] = randPred()
				}
				cnf[c] = cl
			}
			pool[i] = cnf
		}

		benchMetric = &Metric{Mode: ModeEndpoint, Stats: stats}
		benchKernel = NewKernel(ModeEndpoint)
		benchProfiles = make([]*Profile, benchAreas)
		for i := range benchProfiles {
			benchProfiles[i] = benchMetric.Profile(&extract.AccessArea{
				Relations: tableSets[r.Intn(len(tableSets))],
				CNF:       pool[r.Intn(len(pool))],
				Exact:     true,
			})
			benchKernel.Add(benchProfiles[i])
		}
	})
	return benchProfiles, benchMetric, benchKernel
}

// benchPairs replays one fixed LCG pair schedule, so both benchmarks
// evaluate the same pairs in the same order for any b.N.
func benchPairs(b *testing.B, dist func(i, j int) float64) {
	state := uint64(42)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % benchAreas)
	}
	sum := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sum += dist(next(), next())
	}
	b.StopTimer()
	if sum < 0 {
		b.Fatal("negative distance sum")
	}
}

// BenchmarkProfileDistance times the pointer-walking Metric.ProfileDistance
// per pair; compare its ns/op with BenchmarkKernelDistance's.
func BenchmarkProfileDistance(b *testing.B) {
	profiles, m, _ := benchFixture()
	benchPairs(b, func(i, j int) float64 { return m.ProfileDistance(profiles[i], profiles[j]) })
}

// BenchmarkKernelDistance times the flat SoA Kernel.Distance per pair over
// the pairs BenchmarkProfileDistance evaluates.
func BenchmarkKernelDistance(b *testing.B) {
	_, _, k := benchFixture()
	benchPairs(b, k.Distance)
}
