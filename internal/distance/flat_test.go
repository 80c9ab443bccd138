package distance

import (
	"math/rand"
	"testing"

	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/predicate"
	"repro/internal/schema"
)

// randProfileArea builds a randomized access area mixing numeric ranges,
// string equality/inequality, joins and cross-column structure, including
// columns the stats registry has never seen (exercising the per-predicate
// fallback that used to make the literal mode asymmetric).
func randProfileArea(r *rand.Rand) *extract.AccessArea {
	numCols := []string{"T.a", "T.b", "T.u", "X.q"} // X.q is unseeded
	strCols := []string{"S.class", "X.tag"}         // X.tag is unseeded
	tables := [][]string{{"T"}, {"S"}, {"T", "S"}, nil}[r.Intn(4)]
	nClauses := r.Intn(4)
	cnf := make(predicate.CNF, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		nPreds := r.Intn(3) + 1
		cl := make(predicate.Clause, 0, nPreds)
		for j := 0; j < nPreds; j++ {
			switch r.Intn(4) {
			case 0:
				cl = append(cl, predicate.CC(strCols[r.Intn(len(strCols))],
					[]predicate.Op{predicate.Eq, predicate.Ne}[r.Intn(2)],
					predicate.Str([]string{"STAR", "GALAXY", "QSO"}[r.Intn(3)])))
			case 1:
				cl = append(cl, predicate.Cols(numCols[r.Intn(len(numCols))],
					predicate.Op(r.Intn(6)), numCols[r.Intn(len(numCols))]))
			default:
				cl = append(cl, cc(numCols[r.Intn(len(numCols))],
					predicate.Op(r.Intn(6)), float64(r.Intn(10))))
			}
		}
		cnf = append(cnf, cl)
	}
	return area(tables, cnf)
}

func kernelStats() *schema.Stats {
	st := schema.NewStats()
	st.SeedNumericContent("T.a", interval.Closed(0, 5))
	st.SeedNumericContent("T.b", interval.Closed(0, 5))
	st.SeedNumericContent("T.u", interval.Closed(0, 100))
	st.SeedCategorical("S.class", []string{"STAR", "GALAXY", "QSO", "UNKNOWN"})
	return st
}

// TestKernelMatchesProfileDistance is the bit-identity gate: over randomized
// areas, Kernel.Distance must equal Metric.ProfileDistance exactly (no
// epsilon) for every pair, in both modes.
func TestKernelMatchesProfileDistance(t *testing.T) {
	for _, mode := range []Mode{ModeEndpoint, ModePaperLiteral} {
		m := &Metric{Mode: mode, Stats: kernelStats()}
		kern := NewKernel(mode)
		r := rand.New(rand.NewSource(7))
		const n = 60
		profiles := make([]*Profile, n)
		for i := 0; i < n; i++ {
			var a *extract.AccessArea
			if i > 0 && r.Intn(5) == 0 {
				a = profiles[r.Intn(i)].Area // duplicate content: early-exit path
			} else {
				a = randProfileArea(r)
			}
			profiles[i] = m.Profile(a)
			if idx := kern.Add(profiles[i]); idx != i {
				t.Fatalf("mode %v: Add returned %d, want %d", mode, idx, i)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := m.ProfileDistance(profiles[i], profiles[j])
				got := kern.Distance(i, j)
				if got != want {
					t.Fatalf("mode %v: kernel d(%d,%d) = %v, pointer = %v\n a=%s\n b=%s",
						mode, i, j, got, want, profiles[i].Area, profiles[j].Area)
				}
			}
		}
	}
}

// TestPropSymmetryIdentityBothModes asserts d(p,q) == d(q,p) exactly and
// d(p,p) == 0 for BOTH modes over randomized profiles — the contract
// dbscan.Cluster documents for its distance function. Before the
// symmetrization fix the literal mode violated both.
func TestPropSymmetryIdentityBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeEndpoint, ModePaperLiteral} {
		m := &Metric{Mode: mode, Stats: kernelStats()}
		kern := NewKernel(mode)
		r := rand.New(rand.NewSource(11))
		const n = 80
		profiles := make([]*Profile, n)
		for i := 0; i < n; i++ {
			profiles[i] = m.Profile(randProfileArea(r))
			kern.Add(profiles[i])
		}
		for i := 0; i < n; i++ {
			if d := m.ProfileDistance(profiles[i], profiles[i]); d != 0 {
				t.Fatalf("mode %v: pointer d(p,p) = %v for %s", mode, d, profiles[i].Area)
			}
			if d := kern.Distance(i, i); d != 0 {
				t.Fatalf("mode %v: kernel d(p,p) = %v for %s", mode, d, profiles[i].Area)
			}
		}
		for trial := 0; trial < 2000; trial++ {
			i, j := r.Intn(n), r.Intn(n)
			dij := m.ProfileDistance(profiles[i], profiles[j])
			dji := m.ProfileDistance(profiles[j], profiles[i])
			if dij != dji {
				t.Fatalf("mode %v: pointer asymmetry d(%d,%d)=%v d(%d,%d)=%v\n a=%s\n b=%s",
					mode, i, j, dij, j, i, dji, profiles[i].Area, profiles[j].Area)
			}
			if kij, kji := kern.Distance(i, j), kern.Distance(j, i); kij != kji {
				t.Fatalf("mode %v: kernel asymmetry %v vs %v", mode, kij, kji)
			}
		}
	}
}

// TestKernelZeroAllocPerPair guards the SoA kernel's no-per-pair-allocation
// property.
func TestKernelZeroAllocPerPair(t *testing.T) {
	m := &Metric{Stats: kernelStats()}
	kern := NewKernel(ModeEndpoint)
	r := rand.New(rand.NewSource(3))
	const n = 32
	for i := 0; i < n; i++ {
		kern.Add(m.Profile(randProfileArea(r)))
	}
	i, j := 0, 1
	sink := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		sink += kern.Distance(i, j)
		i = (i + 1) % n
		j = (j + 3) % n
	})
	if allocs != 0 {
		t.Errorf("Distance allocates %v per pair, want 0", allocs)
	}
	_ = sink
}

// TestKernelEarlyExit checks that structurally identical constraint lists
// take the early exit and still score exact 0.
func TestKernelEarlyExit(t *testing.T) {
	m := &Metric{Stats: kernelStats()}
	kern := NewKernel(ModeEndpoint)
	a := area([]string{"T"}, predicate.CNF{
		{cc("T.a", predicate.Lt, 3)},
		{cc("T.b", predicate.Gt, 1), cc("T.u", predicate.Eq, 7)},
	})
	b := area([]string{"T", "S"}, predicate.CNF{
		{cc("T.a", predicate.Lt, 3)},
		{cc("T.b", predicate.Gt, 1), cc("T.u", predicate.Eq, 7)},
	})
	kern.Add(m.Profile(a))
	kern.Add(m.Profile(b)) // same constraints, different tables
	before := kernelEarlyExitTotal.Value()
	if d := kern.Distance(0, 1); d != m.Distance(a, b) {
		t.Errorf("early-exit pair d = %v, pointer = %v", d, m.Distance(a, b))
	}
	if got := kernelEarlyExitTotal.Value(); got != before+1 {
		t.Errorf("early exits = %d, want %d", got, before+1)
	}
}

// TestKernelAppendStable asserts appending more areas leaves earlier pair
// distances untouched (the incremental miner appends across epochs).
func TestKernelAppendStable(t *testing.T) {
	m := &Metric{Stats: kernelStats()}
	kern := NewKernel(ModeEndpoint)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		kern.Add(m.Profile(randProfileArea(r)))
	}
	d01, d57 := kern.Distance(0, 1), kern.Distance(5, 7)
	for i := 0; i < 20; i++ {
		kern.Add(m.Profile(randProfileArea(r)))
	}
	if kern.Distance(0, 1) != d01 || kern.Distance(5, 7) != d57 {
		t.Error("appending areas changed existing pair distances")
	}
	if kern.N() != 40 {
		t.Errorf("N = %d, want 40", kern.N())
	}
}

// After the registry moves, Set-ing only the areas that read a moved column
// (ReadColumns) must leave the kernel bit-identical to a fresh kernel built
// from profiles compiled under the moved registry — every other area's
// profile is provably unchanged.
func TestKernelSetMatchesFreshKernel(t *testing.T) {
	for _, mode := range []Mode{ModeEndpoint, ModePaperLiteral} {
		st := kernelStats()
		m := &Metric{Mode: mode, Stats: st}
		kern := NewKernel(mode)
		r := rand.New(rand.NewSource(11))
		const n = 60
		areas := make([]*extract.AccessArea, n)
		for i := range areas {
			areas[i] = randProfileArea(r)
			kern.Add(m.Profile(areas[i]))
		}
		gen := st.Generation()
		st.ObserveNumeric("T.u", 500)         // widen a seeded column
		st.ObserveNumeric("X.q", 3)           // create an unseeded one
		st.ObserveCategorical("S.class", "X") // new categorical value
		cols, all, _ := st.ChangedSince(gen)
		if all || len(cols) != 3 {
			t.Fatalf("changed columns %v (all=%v)", cols, all)
		}
		changed, set := 0, 0
		for i, a := range areas {
			reads := false
			for _, c := range ReadColumns(a) {
				for _, moved := range cols {
					reads = reads || c == moved
				}
			}
			if !reads {
				continue
			}
			set++
			if kern.Set(i, m.Profile(a)) {
				changed++
			}
		}
		if changed == 0 || set == n {
			t.Fatalf("mode %v: %d of %d areas re-Set, %d changed; the test needs a strict subset", mode, set, n, changed)
		}
		fresh := NewKernel(mode)
		for _, a := range areas {
			fresh.Add(m.Profile(a))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := kern.Distance(i, j), fresh.Distance(i, j); got != want {
					t.Fatalf("mode %v: d(%d,%d) = %v after Set, fresh kernel %v", mode, i, j, got, want)
				}
			}
		}
	}
}

func TestReadColumns(t *testing.T) {
	a := area([]string{"T", "S"}, predicate.CNF{
		{cc("T.a", predicate.Lt, 3), predicate.Cols("T.a", predicate.Eq, "T.b")},
		{predicate.CC("S.class", predicate.Eq, predicate.Str("STAR")), cc("T.a", predicate.Gt, 1)},
		{predicate.True()},
	})
	got := ReadColumns(a)
	if len(got) != 2 || got[0] != "T.a" || got[1] != "S.class" {
		t.Fatalf("ReadColumns = %v, want [T.a S.class]", got)
	}
}
