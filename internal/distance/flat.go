package distance

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
)

// Kernel is the flat struct-of-arrays distance engine behind the bulk
// clustering path. Add repacks compiled Profiles into columnar storage —
// interned table/column ids, flat float64 lo/hi endpoint and access-width
// fields, and per-column bitsets for categorical value membership — so
// Distance walks contiguous arrays instead of chasing per-predicate
// pointers and map iterators, and allocates nothing per pair.
//
// Storage is content-deduplicated at three levels: structurally identical
// predicates intern to one predicate id (one 64-byte record, a single cache
// line, holds everything d_pred reads), identical predicate sequences intern
// to one clause id, and identical clause sequences intern to one
// constraint-list id. Templated workloads re-issue the same constraints with
// varying table sets, so the distinct-record pool stays small and hot while
// every structural-equality test — the paper-literal identity rule, the
// clause fast path, and the whole-list upper-bound early exit that skips
// d_conj's min-matching loops outright — collapses to one integer compare.
// Each area's scaffolding (counts, list id, its first table and clause ids)
// packs into one 64-byte header, so a distance evaluation starts with two
// cache-line loads instead of a gather across offset arrays.
//
// Distance(i, j) is bit-identical to Metric.ProfileDistance on the profiles
// passed to Add, in both modes: the min-matching is order-insensitive, the
// per-pair float expressions are the same, and the early exits only return
// 0 where the pointer path provably computes exact 0. The equivalence is
// asserted pair-for-pair by TestKernelMatchesProfileDistance.
//
// Add and Set are not safe for concurrent use; Distance is (it only reads),
// which is what DBSCAN's parallel region queries require. Indices are
// stable: the shared substrate keeps one Kernel alive across epochs, appends
// each epoch's new profiles and Sets the few whose access(a) moved.
type Kernel struct {
	mode Mode
	// bias/scale express both modes' different-column d_pred as one FMA:
	// endpoint 1 - x = 1 + (-1)*x, paper-literal x = 0 + 1*x (exact in IEEE
	// arithmetic). Fixed at construction so the hot loops never branch on mode.
	bias, scale float64

	// Interning state (build time only).
	tabID   map[string]int32
	colID   map[string]int32
	valBit  map[string]int32 // column + "\x00" + value -> per-column bit
	colBits map[int32]int32  // column id -> bits assigned so far
	predID  map[predKey]int32
	clauseI map[string]int32 // pid sequence -> clause id
	listI   map[string]int32 // clause-id sequence -> constraint-list id

	// hdr holds one packed header per DISTINCT (constraint list, relation
	// set) pair; ref maps each added area to its header. Areas repeat
	// heavily in templated logs, so the indirection shrinks the random-read
	// footprint of a pair eval from one header per area to one header per
	// distinct shape — the 4-byte ref reads stay cache-resident. tabs is
	// the spill storage for header table ids.
	hdr  []areaHdr
	ref  []int32
	hdrI map[string]int32 // (lid, table ids) -> header index
	tabs []int32

	// Per distinct clause: its predicate ids, plus a 32-byte summary
	// (see clauseHot) that lets disjoint-column clause pairs skip
	// min-matching entirely. prFr/prTg mirror prIDs with each predicate's
	// access fraction and tag laid out clause-contiguously, so the
	// min-matching inner loops stream sequential memory instead of
	// gathering hot[prIDs[y]] through a dependent load.
	prOff []int32 // clause c owns prIDs[prOff[c]:prOff[c+1]]
	prIDs []int32
	prFr  []float64
	prTg  []uint16
	chot  []clauseHot

	// lch replicates each distinct constraint list's clause summaries into
	// one contiguous run (start per list in listStart, indexed by list id).
	// d_conj walks a list's clauses in order, so the run turns its clause
	// loads into a short sequential stream the prefetcher hides, instead of
	// one random chot line per clause id. Clause identity rides along in
	// each summary's off field (unique per distinct clause).
	lch       []clauseHot
	listStart []int32

	// Per distinct predicate: one packed record (see predRec), plus a tiny
	// 16-byte hot entry (tag + access fraction) that resolves the
	// overwhelmingly common different-column d_pred case from L1 without
	// touching recs, plus a 32-byte numeric mirror (see predNum) so the
	// dominant residual case — same-column numeric pairs — stays L1-resident
	// at twice the record density of recs.
	recs []predRec
	hot  []predHot
	num  []predNum

	// setWords holds all categorical bitsets back to back; bit positions are
	// interned per column, so same-column sets intersect by word AND.
	setWords []uint64

	// Build-time scratch, reused across Add calls.
	keyBuf []byte
	setBuf []uint64
	clBuf  []int32
	tabBuf []int32
}

// areaHdr packs one area's distance scaffolding into 32 bytes — half a
// cache line, so a random pair of headers costs at most two lines: counts,
// the interned constraint-list id (the O(1) early-exit key), the offset of
// the list's clause run in lch, and the relation set as a bitmask over
// interned table ids. tabMask is non-zero exactly when the area has tables
// and every id fits in 64 bits — then d_tables is one AND+popcount; the
// rare overflow area (mask 0, tabN > 0) falls back to a sorted merge over
// the spill ids, which Add records for every area.
type areaHdr struct {
	tabN, clN int32
	lid       int32
	lchOff    int32 // start of the list's clause run in lch
	tabOff    int32 // offset of the area's sorted ids in tabs
	_         int32
	tabMask   uint64
}

// tables returns the area's sorted interned table ids.
func (h *areaHdr) tables(k *Kernel) []int32 {
	return k.tabs[h.tabOff : h.tabOff+h.tabN]
}

// clInline is the number of predicate (frac, tag) pairs a clauseHot carries
// inline. SkyServer clauses are overwhelmingly 1-4 predicates, so d_disj
// usually reads one cache line per clause; longer clauses stream from the
// prFr/prTg spill arrays instead.
const clInline = 4

// clauseHot summarises one distinct clause for d_disj in exactly 64 bytes —
// one cache line: the OR of its predicates' column bits (exact while column
// ids stay under 64), the extreme access fraction for the kernel's mode
// (max for endpoint, min for paper-literal — the kernel's mode is fixed at
// construction), the predicate span, and up to clInline inline (frac, tag)
// pairs. plain is 1 when every predicate is an ordinary (non-col-col)
// predicate on a maskable column — then, for a clause pair with disjoint
// masks, every cross pair is the different-column d_pred case and both
// min-matching directions collapse to linear scans against the other
// side's extreme fraction.
type clauseHot struct {
	mask  uint64
	ext   float64
	fr    [clInline]float64
	tg    [clInline]uint16
	off   int32
	n     int16
	plain uint8
	_     uint8
}

// predRec packs every field d_pred reads into 64 bytes so a random
// predicate access costs one cache line instead of a gather across parallel
// columns.
type predRec struct {
	lo, hi, w, frac float64
	col, col2       int32 // col2 is -1 unless kind == kindColCol
	card, nset      int32 // categorical |access(a)| and value-set size
	set, setw       int32 // word offset and count into setWords
	kind, op, flags uint8 // flags: bit0 = LoOpen, bit1 = HiOpen
	_               [5]byte
}

// predNum is the 32-byte mirror of the fields the same-column numeric
// d_pred reads — half a predRec, so twice as many predicates share a cache
// line. kind is 0 (kindNumeric) exactly when the full record's kind is, so
// the both-numeric dispatch needs no recs load at all.
type predNum struct {
	lo, hi, w float64
	col       int32
	kind      uint8
	_         [3]byte
}

// predHot is the L1-resident per-predicate hot entry: tag packs
// (column id << 1 | is-col-col), frac the access fraction. Two predicates
// with distinct tags and both low bits clear are ordinary predicates on
// different columns, whose d_pred is a function of the fracs alone.
type predHot struct {
	frac float64
	tag  uint32
	_    uint32
}

// predKey is the interning identity of a predicate: exactly the equality
// relation predProfilesEqual defines (fields a kind does not use are always
// zero-valued in compiled profiles, so one uniform key is safe).
type predKey struct {
	kind, op, flags uint8
	col, col2       int32
	lo, hi, w, frac float64
	card            int32
	set             string // categorical word image; "" otherwise
}

// NewKernel returns an empty kernel for the given d_pred mode.
func NewKernel(mode Mode) *Kernel {
	bias, scale := 1.0, -1.0
	if mode == ModePaperLiteral {
		bias, scale = 0.0, 1.0
	}
	return &Kernel{
		mode:    mode,
		bias:    bias,
		scale:   scale,
		tabID:   make(map[string]int32),
		colID:   make(map[string]int32),
		valBit:  make(map[string]int32),
		colBits: make(map[int32]int32),
		predID:  make(map[predKey]int32),
		clauseI: make(map[string]int32),
		listI:   make(map[string]int32),
		hdrI:    make(map[string]int32),
		prOff:   []int32{0},
	}
}

// N returns the number of areas added so far.
func (k *Kernel) N() int { return len(k.ref) }

// Add repacks one compiled profile and returns its kernel index.
func (k *Kernel) Add(p *Profile) int {
	k.ref = append(k.ref, k.header(p))
	return len(k.ref) - 1
}

// Set re-points index i at a recompiled profile and reports whether its
// distances can have changed. Every record is content-interned, so a
// profile identical to the one i already holds resolves to the same header
// (Set returns false), and the records of the profile it replaces are kept
// but reached only by areas that still share their exact content — a stale
// record is never read for a recompiled area. The substrate uses it to
// refresh the areas a moved access(a) registry invalidated while keeping
// every other index.
func (k *Kernel) Set(i int, p *Profile) bool {
	hid := k.header(p)
	if k.ref[i] == hid {
		return false
	}
	k.ref[i] = hid
	return true
}

// header interns a profile's tables, clauses and constraint list and
// returns its packed header's index.
func (k *Kernel) header(p *Profile) int32 {
	var h areaHdr
	h.tabN = int32(len(p.Tables))
	k.tabBuf = k.tabBuf[:0]
	maskable := true
	for _, t := range p.Tables {
		id := k.intern(k.tabID, t)
		k.tabBuf = append(k.tabBuf, id)
		if id < 64 {
			h.tabMask |= 1 << uint(id)
		} else {
			maskable = false
		}
	}
	if !maskable {
		h.tabMask = 0
	}
	sort.Slice(k.tabBuf, func(i, j int) bool { return k.tabBuf[i] < k.tabBuf[j] })

	h.clN = int32(len(p.clauses))
	k.clBuf = k.clBuf[:0]
	for ci := range p.clauses {
		k.clBuf = append(k.clBuf, k.internClause(p.clauses[ci]))
	}
	h.lid = k.internIDs(k.listI, k.clBuf)
	if int(h.lid) == len(k.listStart) {
		// First sight of this constraint list: lay its clause summaries out
		// back to back so d_conj streams them.
		k.listStart = append(k.listStart, int32(len(k.lch)))
		for _, c := range k.clBuf {
			k.lch = append(k.lch, k.chot[c])
		}
	}
	h.lchOff = k.listStart[h.lid]

	// Intern the header itself: every field of h is a function of
	// (constraint list, relation set), so areas sharing both — the common
	// case in templated logs — share one header and ref is all that grows.
	k.keyBuf = k.keyBuf[:0]
	k.keyBuf = binary.LittleEndian.AppendUint32(k.keyBuf, uint32(h.lid))
	for _, id := range k.tabBuf {
		k.keyBuf = binary.LittleEndian.AppendUint32(k.keyBuf, uint32(id))
	}
	hid, ok := k.hdrI[string(k.keyBuf)]
	if !ok {
		h.tabOff = int32(len(k.tabs))
		k.tabs = append(k.tabs, k.tabBuf...)
		hid = int32(len(k.hdr))
		k.hdrI[string(k.keyBuf)] = hid
		k.hdr = append(k.hdr, h)
	}
	return hid
}

func (k *Kernel) intern(m map[string]int32, s string) int32 {
	if id, ok := m[s]; ok {
		return id
	}
	id := int32(len(m))
	m[s] = id
	return id
}

// internIDs interns an id sequence (order-sensitive, like the positional
// equality the pointer path's structural checks use).
func (k *Kernel) internIDs(m map[string]int32, ids []int32) int32 {
	k.keyBuf = k.keyBuf[:0]
	for _, id := range ids {
		k.keyBuf = binary.LittleEndian.AppendUint32(k.keyBuf, uint32(id))
	}
	if id, ok := m[string(k.keyBuf)]; ok {
		return id
	}
	id := int32(len(m))
	m[string(k.keyBuf)] = id
	return id
}

// internClause interns one clause's predicate sequence, storing the pid
// list on first sight.
func (k *Kernel) internClause(cl clauseProfile) int32 {
	pidStart := len(k.prIDs)
	for pi := range cl {
		k.prIDs = append(k.prIDs, k.internPred(&cl[pi]))
	}
	pids := k.prIDs[pidStart:]
	id := k.internIDs(k.clauseI, pids)
	if int(id) < len(k.prOff)-1 {
		// Known clause: drop the duplicate pid run.
		k.prIDs = k.prIDs[:pidStart]
		return id
	}
	k.prOff = append(k.prOff, int32(len(k.prIDs)))
	ch := clauseHot{off: int32(pidStart), n: int16(len(pids)), ext: math.Inf(-1)}
	if k.mode == ModePaperLiteral {
		ch.ext = math.Inf(1)
	}
	if len(pids) > 0 {
		ch.plain = 1
	}
	for i, pid := range pids {
		h := &k.hot[pid]
		col := h.tag >> 1
		if h.tag&1 == 1 || col >= 64 {
			ch.plain = 0
		}
		ch.mask |= 1 << (col & 63)
		if k.mode == ModePaperLiteral {
			if h.frac < ch.ext {
				ch.ext = h.frac
			}
		} else if h.frac > ch.ext {
			ch.ext = h.frac
		}
		k.prFr = append(k.prFr, h.frac)
		k.prTg = append(k.prTg, tag16(h.tag))
		if i < clInline {
			ch.fr[i] = h.frac
			ch.tg[i] = tag16(h.tag)
		}
	}
	k.chot = append(k.chot, ch)
	return id
}

// tag16 narrows a predicate tag to the 16-bit hot-loop form. Tags that do
// not fit map to the odd sentinel 0xFFFF: the different-column fast path
// requires two *even* distinct tags, so sentinel pairs always fall through
// to predDist — conservative, never wrong. Narrowing below the sentinel is
// injective, so equal 16-bit tags imply equal columns.
func tag16(tag uint32) uint16 {
	if tag >= 0xFFFF {
		return 0xFFFF
	}
	return uint16(tag)
}

// internPred interns one compiled predicate, appending its packed record
// (and categorical bitset words) on first sight.
func (k *Kernel) internPred(p *predProfile) int32 {
	var fl uint8
	if p.iv.LoOpen {
		fl |= 1
	}
	if p.iv.HiOpen {
		fl |= 2
	}
	col := k.intern(k.colID, p.column)
	col2 := int32(-1)
	if p.kind == kindColCol {
		col2 = k.intern(k.colID, p.column2)
	}
	k.setBuf = k.setBuf[:0]
	if p.kind == kindString && len(p.strSet) > 0 {
		maxBit := int32(-1)
		for v := range p.strSet {
			if b := k.internBit(col, p.column, v); b > maxBit {
				maxBit = b
			}
		}
		for i := int32(0); i <= maxBit/64; i++ {
			k.setBuf = append(k.setBuf, 0)
		}
		for v := range p.strSet {
			b := k.internBit(col, p.column, v)
			k.setBuf[b/64] |= 1 << uint(b%64)
		}
	}
	k.keyBuf = k.keyBuf[:0]
	for _, w := range k.setBuf {
		k.keyBuf = binary.LittleEndian.AppendUint64(k.keyBuf, w)
	}
	key := predKey{
		kind: uint8(p.kind), op: uint8(p.op), flags: fl,
		col: col, col2: col2,
		lo: p.iv.Lo, hi: p.iv.Hi, w: p.accessWidth, frac: p.frac,
		card: int32(p.accessCard), set: string(k.keyBuf),
	}
	if id, ok := k.predID[key]; ok {
		return id
	}
	id := int32(len(k.recs))
	k.predID[key] = id
	off := int32(len(k.setWords))
	k.setWords = append(k.setWords, k.setBuf...)
	k.recs = append(k.recs, predRec{
		lo: p.iv.Lo, hi: p.iv.Hi, w: p.accessWidth, frac: p.frac,
		col: col, col2: col2,
		card: int32(p.accessCard), nset: int32(len(p.strSet)),
		set: off, setw: int32(len(k.setBuf)),
		kind: uint8(p.kind), op: uint8(p.op), flags: fl,
	})
	tag := uint32(col) << 1
	if p.kind == kindColCol {
		tag |= 1
	}
	k.hot = append(k.hot, predHot{frac: p.frac, tag: tag})
	k.num = append(k.num, predNum{
		lo: p.iv.Lo, hi: p.iv.Hi, w: p.accessWidth,
		col: col, kind: uint8(p.kind),
	})
	return id
}

// internBit assigns (or fetches) the bit position of a categorical value
// within its column's bit space. Only same-column sets are ever compared,
// so positions need not be unique across columns.
func (k *Kernel) internBit(col int32, column, val string) int32 {
	key := column + "\x00" + val
	if b, ok := k.valBit[key]; ok {
		return b
	}
	b := k.colBits[col]
	k.colBits[col] = b + 1
	k.valBit[key] = b
	return b
}

// Distance computes d_tables + d_conj between areas i and j, bit-identical
// to Metric.ProfileDistance on the corresponding profiles.
func (k *Kernel) Distance(i, j int) float64 {
	kernelEvalsTotal.Inc()
	hi, hj := &k.hdr[k.ref[i]], &k.hdr[k.ref[j]]
	return k.dTables(hi, hj) + k.dConj(hi, hj)
}

func (k *Kernel) dTables(hi, hj *areaHdr) float64 {
	n1, n2 := int(hi.tabN), int(hj.tabN)
	if n1 == 0 && n2 == 0 {
		return 0
	}
	var inter int
	if (n1 == 0 || hi.tabMask != 0) && (n2 == 0 || hj.tabMask != 0) {
		// Both relation sets fit their header masks (an empty side's zero
		// mask intersects to zero, which is exactly its merge count):
		// the Jaccard intersection is one AND+popcount over bits the header
		// load already brought in.
		inter = bits.OnesCount64(hi.tabMask & hj.tabMask)
	} else {
		t1 := hi.tables(k)
		t2 := hj.tables(k)
		a, b := 0, 0
		for a < n1 && b < n2 {
			switch {
			case t1[a] == t2[b]:
				inter++
				a++
				b++
			case t1[a] < t2[b]:
				a++
			default:
				b++
			}
		}
	}
	union := n1 + n2 - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// matchBuf is the stack capacity of the min-matching best arrays in the
// general (large) path. The §6.6 predicate cap (default 35) keeps clause
// and predicate counts well under it; pathological areas beyond it fall
// back to a heap allocation.
const matchBuf = 64

// smallMatch is the side length under which min-matching runs on fixed
// 8-wide stack buffers instead of the matchBuf frames — the common case by
// far, and the zeroing of two 512-byte frames it avoids is measurable.
const smallMatch = 8

func (k *Kernel) dConj(hi, hj *areaHdr) float64 {
	n1, n2 := int(hi.clN), int(hj.clN)
	if n1 == 0 && n2 == 0 {
		return 0
	}
	if n1 == 0 || n2 == 0 {
		return 1
	}
	// Upper-bound early exit: structurally identical constraint lists are at
	// distance exactly 0 (every clause min-matches its twin at 0), so the
	// O(n1·n2) loop below can be skipped outright — one integer compare,
	// thanks to whole-list interning. This is what makes re-evaluations
	// against cluster representatives nearly free.
	if hi.lid == hj.lid {
		kernelEarlyExitTotal.Inc()
		return 0
	}
	// Clause identity check: a clause id owns exactly one prIDs run, so two
	// summaries describe the same clause iff their off fields match — read
	// straight from the lch lines the loops are already streaming.
	// One pass over the clause pairs serves both min-matching directions;
	// the pointer path walks them twice. Distances are >= 0, so a pair whose
	// row and column minima both reached 0 cannot improve either. A
	// single-clause side needs no best arrays: its minimum and the other
	// side's per-column values fall out of one linear scan with the exact
	// same float operations, so results stay bit-identical.
	inf := math.Inf(1)
	// Each area's clause summaries sit in one contiguous lch run (see Add),
	// so both sides stream short sequential spans instead of gathering one
	// random chot line per clause id.
	ch1 := k.lch[hi.lchOff : int(hi.lchOff)+n1]
	ch2 := k.lch[hj.lchOff : int(hj.lchOff)+n2]
	if n1 == 1 {
		hx := &ch1[0]
		c1 := hx.off
		min, sum := inf, 0.0
		for y := 0; y < n2; y++ {
			var dd float64
			if c1 != ch2[y].off {
				dd = k.dDisj(hx, &ch2[y])
			}
			if dd < min {
				min = dd
			}
			sum += dd
		}
		return (min + sum) / float64(n1+n2)
	}
	if n2 == 1 {
		hy := &ch2[0]
		c2 := hy.off
		min, sum := inf, 0.0
		for x := 0; x < n1; x++ {
			var dd float64
			if ch1[x].off != c2 {
				dd = k.dDisj(&ch1[x], hy)
			}
			if dd < min {
				min = dd
			}
			sum += dd
		}
		return (sum + min) / float64(n1+n2)
	}
	if n1 <= smallMatch && n2 <= smallMatch {
		// Row minima live in a scalar (rows finish in order); only the column
		// minima need an array. The zero-skip works unchanged: rmin is
		// exactly what rb[x] would hold for the row in flight.
		var cb [smallMatch]float64
		for y := 0; y < n2; y++ {
			cb[y] = inf
		}
		sumR := 0.0
		for x := 0; x < n1; x++ {
			hx := &ch1[x]
			c1 := hx.off
			rmin := inf
			for y := 0; y < n2; y++ {
				if rmin == 0 && cb[y] == 0 {
					continue
				}
				var dd float64
				if c1 != ch2[y].off {
					dd = k.dDisj(hx, &ch2[y])
				}
				if dd < rmin {
					rmin = dd
				}
				if dd < cb[y] {
					cb[y] = dd
				}
			}
			sumR += rmin
		}
		sumC := 0.0
		for y := 0; y < n2; y++ {
			sumC += cb[y]
		}
		return (sumR + sumC) / float64(n1+n2)
	}
	var rbuf, cbuf [matchBuf]float64
	bestR, bestC := matchSlices(&rbuf, &cbuf, n1, n2)
	for x := 0; x < n1; x++ {
		hx := &ch1[x]
		c1 := hx.off
		for y := 0; y < n2; y++ {
			if bestR[x] == 0 && bestC[y] == 0 {
				continue
			}
			var dd float64
			if c1 != ch2[y].off {
				dd = k.dDisj(hx, &ch2[y])
			}
			if dd < bestR[x] {
				bestR[x] = dd
			}
			if dd < bestC[y] {
				bestC[y] = dd
			}
		}
	}
	return matchSum(bestR, bestC)
}

// dDisj min-matches the predicates of two distinct clauses (equal clause
// ids short-circuit in dConj, which passes the clauses' hot summaries).
func (k *Kernel) dDisj(hx, hy *clauseHot) float64 {
	n1, n2 := int(hx.n), int(hy.n)
	if n1 == 0 && n2 == 0 {
		return 0
	}
	if n1 == 0 || n2 == 0 {
		return 1
	}
	// The different-column fast path is inlined by hand into each loop
	// below (the inliner refuses dPred): ids equal -> 0; tags distinct and
	// neither col-col -> bias + scale*(frac product), which is bit-identical
	// to the branchy form (1 + (-1)*x == 1 - x and 0 + x == x exactly in
	// IEEE arithmetic); everything else drops into predDist. Fractions and
	// tags come from the clause record's own cache line when the clause is
	// short (the usual case), else stream from the clause-contiguous spill
	// mirrors — the hot loops never chase prIDs through the hot array.
	var fr1, fr2 []float64
	var tg1, tg2 []uint16
	if n1 <= clInline {
		fr1, tg1 = hx.fr[:n1], hx.tg[:n1]
	} else {
		fr1, tg1 = k.prFr[hx.off:hx.off+int32(n1)], k.prTg[hx.off:hx.off+int32(n1)]
	}
	if n2 <= clInline {
		fr2, tg2 = hy.fr[:n2], hy.tg[:n2]
	} else {
		fr2, tg2 = k.prFr[hy.off:hy.off+int32(n2)], k.prTg[hy.off:hy.off+int32(n2)]
	}
	inf := math.Inf(1)
	bias, scale := k.bias, k.scale
	if hx.plain&hy.plain == 1 && hx.mask&hy.mask == 0 {
		// Disjoint column sets, all ordinary predicates: every cross pair is
		// the different-column case, monotone in the other predicate's frac
		// (fracs are >= 0), so each row's minimum is attained exactly at the
		// other clause's extreme fraction — the same float expression the
		// pair loop would have produced for that pair. Both directions
		// reduce to linear scans; accumulation order matches the pair loop.
		exta, extb := hx.ext, hy.ext
		sumR := 0.0
		for x := 0; x < n1; x++ {
			sumR += bias + scale*(fr1[x]*extb)
		}
		sumC := 0.0
		for y := 0; y < n2; y++ {
			sumC += bias + scale*(exta*fr2[y])
		}
		return (sumR + sumC) / float64(n1+n2)
	}
	// Partial collapse: even when the clause pair can't take the linear-scan
	// path above, any single ordinary predicate (even tag — the 0xFFFF
	// sentinel is odd, so truncated tags never qualify) facing an all-plain
	// partner clause whose mask misses its column meets only
	// different-column partners: its whole row (or column) needs no per-pair
	// checks, just the FMA. Only the partner side must be plain — the
	// predicate's own clause may hold col-col or high-column predicates.
	// A column id >= 64 shifts the partner mask to zero, which is correct:
	// a plain partner holds columns < 64 only, so the columns really differ.
	// Predicate ids (needed only when a pair falls through to predDist or
	// the equality check) are sliced lazily so the collapsed loops never
	// touch prIDs at all.
	if n1 == 1 {
		ta, fa := tg1[0], fr1[0]
		min, sum := inf, 0.0
		if ta&1 == 0 && hy.plain == 1 && hy.mask>>(ta>>1)&1 == 0 {
			for y := 0; y < n2; y++ {
				d := bias + scale*(fa*fr2[y])
				if d < min {
					min = d
				}
				sum += d
			}
			return (min + sum) / float64(n1+n2)
		}
		pa := k.prIDs[hx.off]
		ps2 := k.prIDs[hy.off : hy.off+int32(n2)]
		for y := 0; y < n2; y++ {
			var d float64
			if tb := tg2[y]; ta != tb && (ta|tb)&1 == 0 {
				d = bias + scale*(fa*fr2[y])
			} else if pb := ps2[y]; pa != pb {
				d = k.predDist(pa, pb)
			}
			if d < min {
				min = d
			}
			sum += d
		}
		return (min + sum) / float64(n1+n2)
	}
	if n2 == 1 {
		tb, fb := tg2[0], fr2[0]
		min, sum := inf, 0.0
		if tb&1 == 0 && hx.plain == 1 && hx.mask>>(tb>>1)&1 == 0 {
			for x := 0; x < n1; x++ {
				d := bias + scale*(fr1[x]*fb)
				if d < min {
					min = d
				}
				sum += d
			}
			return (sum + min) / float64(n1+n2)
		}
		pb := k.prIDs[hy.off]
		ps1 := k.prIDs[hx.off : hx.off+int32(n1)]
		for x := 0; x < n1; x++ {
			var d float64
			if ta := tg1[x]; ta != tb && (ta|tb)&1 == 0 {
				d = bias + scale*(fr1[x]*fb)
			} else if pa := ps1[x]; pa != pb {
				d = k.predDist(pa, pb)
			}
			if d < min {
				min = d
			}
			sum += d
		}
		return (sum + min) / float64(n1+n2)
	}
	if n1 <= smallMatch && n2 <= smallMatch {
		// The row minimum lives in a scalar (rows finish before the next
		// starts), so only the column minima need an array; sumR accumulates
		// per finished row in the same order smallSum would have read it.
		var cb [smallMatch]float64
		for y := 0; y < n2; y++ {
			cb[y] = inf
		}
		// No zero-skip here: predicate distances rarely bottom out at 0, so
		// the two loads per pair cost more than the skips save (and since
		// distances are >= 0, evaluating a skippable pair cannot change any
		// minimum — results are identical either way).
		ps1 := k.prIDs[hx.off : hx.off+int32(n1)]
		ps2 := k.prIDs[hy.off : hy.off+int32(n2)]
		sumR := 0.0
		for x := 0; x < n1; x++ {
			ta, fa := tg1[x], fr1[x]
			rmin := inf
			if ta&1 == 0 && hy.plain == 1 && hy.mask>>(ta>>1)&1 == 0 {
				// Ordinary predicate, column outside the plain partner's mask:
				// every partner is the different-column case, so the row runs
				// check-free.
				for y := 0; y < n2; y++ {
					d := bias + scale*(fa*fr2[y])
					if d < rmin {
						rmin = d
					}
					if d < cb[y] {
						cb[y] = d
					}
				}
				sumR += rmin
				continue
			}
			pa := ps1[x]
			for y := 0; y < n2; y++ {
				var d float64
				if tb := tg2[y]; ta != tb && (ta|tb)&1 == 0 {
					d = bias + scale*(fa*fr2[y])
				} else if pb := ps2[y]; pa != pb {
					d = k.predDist(pa, pb)
				}
				if d < rmin {
					rmin = d
				}
				if d < cb[y] {
					cb[y] = d
				}
			}
			sumR += rmin
		}
		sumC := 0.0
		for y := 0; y < n2; y++ {
			sumC += cb[y]
		}
		return (sumR + sumC) / float64(n1+n2)
	}
	ps1 := k.prIDs[hx.off : hx.off+int32(n1)]
	ps2 := k.prIDs[hy.off : hy.off+int32(n2)]
	var rbuf, cbuf [matchBuf]float64
	bestR, bestC := matchSlices(&rbuf, &cbuf, n1, n2)
	for x := 0; x < n1; x++ {
		for y := 0; y < n2; y++ {
			if bestR[x] == 0 && bestC[y] == 0 {
				continue
			}
			d := k.dPred(ps1[x], ps2[y])
			if d < bestR[x] {
				bestR[x] = d
			}
			if d < bestC[y] {
				bestC[y] = d
			}
		}
	}
	return matchSum(bestR, bestC)
}

// matchSlices sizes the min-matching best arrays out of the caller's stack
// buffers (heap only past matchBuf) and fills them with +Inf.
func matchSlices(rbuf, cbuf *[matchBuf]float64, n1, n2 int) ([]float64, []float64) {
	var bestR, bestC []float64
	if n1 <= matchBuf {
		bestR = rbuf[:n1]
	} else {
		bestR = make([]float64, n1)
	}
	if n2 <= matchBuf {
		bestC = cbuf[:n2]
	} else {
		bestC = make([]float64, n2)
	}
	inf := math.Inf(1)
	for x := range bestR {
		bestR[x] = inf
	}
	for y := range bestC {
		bestC[y] = inf
	}
	return bestR, bestC
}

// matchSum folds both directions' minima into the min-matching average —
// the same operand order as the pointer path's two passes combined with one
// commutative addition, keeping results bit-identical.
func matchSum(bestR, bestC []float64) float64 {
	sumR, sumC := 0.0, 0.0
	for x := range bestR {
		sumR += bestR[x]
	}
	for y := range bestC {
		sumC += bestC[y]
	}
	return (sumR + sumC) / float64(len(bestR)+len(bestC))
}

// smallSum is matchSum over the fixed small buffers.
func smallSum(rb, cb *[smallMatch]float64, n1, n2 int) float64 {
	sumR, sumC := 0.0, 0.0
	for x := 0; x < n1; x++ {
		sumR += rb[x]
	}
	for y := 0; y < n2; y++ {
		sumC += cb[y]
	}
	return (sumR + sumC) / float64(n1+n2)
}

// dPred is the per-pair hot path, kept small enough to inline into the
// min-matching loops: interned ids make structural equality one compare
// (the paper-literal identity rule; in endpoint mode the full computation
// provably yields exact 0 for equal predicates), and a different-column
// pair — the overwhelmingly common case — needs only the L1-resident
// tag and frac arrays. Everything else drops into predDist.
func (k *Kernel) dPred(a, b int32) float64 {
	if a == b {
		return 0
	}
	ha, hb := &k.hot[a], &k.hot[b]
	if ha.tag != hb.tag && (ha.tag|hb.tag)&1 == 0 {
		occupied := ha.frac * hb.frac
		if k.mode == ModePaperLiteral {
			return occupied
		}
		return 1 - occupied
	}
	return k.predDist(a, b)
}

// predDist handles the residual d_pred cases from the packed records:
// col-col predicates, same-column pairs, and (defensively) the
// different-column case dPred already covers. The branch order follows
// the residual-case frequency: tag equality routes same-column pairs
// here, and most columns are numeric, so both-numeric leads.
func (k *Kernel) predDist(a, b int32) float64 {
	na, nb := &k.num[a], &k.num[b]
	if na.kind|nb.kind == 0 { // both kindNumeric
		if na.col != nb.col {
			return k.bias + k.scale*(k.hot[a].frac*k.hot[b].frac)
		}
		// The endpoint-mode body of symNumeric, unrolled here to spare the
		// dominant residual case a second call and the full-record loads.
		if wa, wb := na.w, nb.w; wa > 0 && wb > 0 && k.mode != ModePaperLiteral {
			d := math.Abs(na.lo - nb.lo)
			if dh := math.Abs(na.hi - nb.hi); dh > d {
				d = dh
			}
			da := d / wa
			if da > 1 {
				da = 1
			}
			db := d / wb
			if db > 1 {
				db = 1
			}
			return (da + db) / 2
		}
		return k.symNumeric(&k.recs[a], &k.recs[b])
	}
	ra, rb := &k.recs[a], &k.recs[b]
	ka, kb := predKind(ra.kind), predKind(rb.kind)
	if ka == kindColCol || kb == kindColCol {
		if ka != kb {
			if k.mode == ModePaperLiteral {
				return 0
			}
			return 1
		}
		same := ra.col == rb.col && ra.col2 == rb.col2
		switch {
		case same && ra.op == rb.op:
			return 0
		case same:
			return 0.5
		default:
			return 1
		}
	}
	if ra.col != rb.col {
		occupied := ra.frac * rb.frac
		if k.mode == ModePaperLiteral {
			return occupied
		}
		return 1 - occupied
	}
	if ka != kb {
		if k.mode == ModePaperLiteral {
			return 0
		}
		return 1
	}
	if ka == kindString {
		return k.dPredCategorical(ra, rb)
	}
	return k.symNumeric(ra, rb)
}

// symNumeric is the symmetric numeric d_pred,
// (dirNumeric(a,b)+dirNumeric(b,a))/2, with the direction-independent part
// computed once: the endpoint deltas (and the literal-mode intersection) are
// bit-identical in both directions, so only the per-side width division
// differs. Zero-width records keep the two-call form for its equality check.
func (k *Kernel) symNumeric(ra, rb *predRec) float64 {
	if ra.w <= 0 || rb.w <= 0 {
		return (k.dirNumeric(ra, rb) + k.dirNumeric(rb, ra)) / 2
	}
	if k.mode == ModePaperLiteral {
		lo, hi := ra.lo, ra.hi
		if rb.lo > lo {
			lo = rb.lo
		}
		if rb.hi < hi {
			hi = rb.hi
		}
		if hi <= lo {
			return 0
		}
		ov := hi - lo
		return (ov/ra.w + ov/rb.w) / 2
	}
	d := math.Abs(ra.lo - rb.lo)
	if dh := math.Abs(ra.hi - rb.hi); dh > d {
		d = dh
	}
	da := d / ra.w
	if da > 1 {
		da = 1
	}
	db := d / rb.w
	if db > 1 {
		db = 1
	}
	return (da + db) / 2
}

// dirNumeric mirrors Metric.dirNumeric over the packed records. Compiled
// intervals are never empty (compileNumeric collapses empty clips to a
// point), so width arithmetic on raw endpoints matches interval.OverlapLen,
// whose measure ignores endpoint openness.
func (k *Kernel) dirNumeric(ra, rb *predRec) float64 {
	w := ra.w
	if w <= 0 {
		if ra.lo == rb.lo && ra.hi == rb.hi && ra.flags == rb.flags {
			return 0
		}
		if k.mode == ModePaperLiteral {
			return 0
		}
		return 1
	}
	if k.mode == ModePaperLiteral {
		lo, hi := ra.lo, ra.hi
		if rb.lo > lo {
			lo = rb.lo
		}
		if rb.hi < hi {
			hi = rb.hi
		}
		if hi <= lo {
			return 0
		}
		return (hi - lo) / w
	}
	d := math.Abs(ra.lo - rb.lo)
	if dh := math.Abs(ra.hi - rb.hi); dh > d {
		d = dh
	}
	d /= w
	if d > 1 {
		d = 1
	}
	return d
}

func (k *Kernel) dPredCategorical(ra, rb *predRec) float64 {
	var inter int
	if ra.setw == 1 && rb.setw == 1 {
		// Single-word sets — every SkyServer categorical column by far —
		// intersect without slice setup.
		inter = bits.OnesCount64(k.setWords[ra.set] & k.setWords[rb.set])
	} else {
		wa := k.setWords[ra.set : ra.set+ra.setw]
		wb := k.setWords[rb.set : rb.set+rb.setw]
		n := len(wa)
		if len(wb) < n {
			n = len(wb)
		}
		for i := 0; i < n; i++ {
			inter += bits.OnesCount64(wa[i] & wb[i])
		}
	}
	if k.mode == ModePaperLiteral {
		return (dirCard(inter, ra.card) + dirCard(inter, rb.card)) / 2
	}
	union := int(ra.nset) + int(rb.nset) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

func dirCard(inter int, card int32) float64 {
	if card <= 0 {
		return 0
	}
	return float64(inter) / float64(card)
}
