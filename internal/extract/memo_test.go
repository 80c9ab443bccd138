package extract

import (
	"fmt"
	"testing"
)

func distinctText(i int) string { return fmt.Sprintf("SELECT * FROM T WHERE u = %d", i) }

// An all-distinct log switches the memo off at the end of its probation
// window and drops every entry; later lookups still lex, into private
// entries. Lookups made while probation is suspended do not count.
func TestMemoProbationOffOnDistinctLog(t *testing.T) {
	c := &TemplateCache{}
	resume := c.SuspendProbation()
	for i := 0; i < 2*memoProbation; i++ {
		c.Stmt(distinctText(-1 - i))
	}
	resume()
	if c.MemoOff() {
		t.Fatal("lookups under SuspendProbation switched the memo off")
	}
	for i := 0; i < memoProbation-1; i++ {
		c.Stmt(distinctText(i))
	}
	if c.MemoOff() || c.MemoLen() != 3*memoProbation-1 {
		t.Fatalf("before the window closes: off=%v len=%d, want on with %d entries", c.MemoOff(), c.MemoLen(), 3*memoProbation-1)
	}
	c.Stmt(distinctText(memoProbation))
	if !c.MemoOff() || c.MemoLen() != 0 {
		t.Fatalf("after %d misses and no hits: off=%v len=%d, want off with 0 entries", memoProbation, c.MemoOff(), c.MemoLen())
	}
	a, b := c.Stmt(distinctText(1)), c.Stmt(distinctText(1))
	if a == b || c.MemoLen() != 0 {
		t.Error("an off memo shared or stored an entry")
	}
	if fp, lits, ok := a.Fingerprint(); !ok || fp == 0 || len(lits) != 1 || lits[0].Num != 1 {
		t.Errorf("off memo's private entry: fp=%x lits=%v ok=%v", fp, lits, ok)
	}
}

// A duplicate-heavy log keeps the memo on past its probation window, and
// identical texts share one entry.
func TestMemoProbationKeepsDuplicateLog(t *testing.T) {
	c := &TemplateCache{}
	const texts = 3 * memoProbation
	hits0, misses0 := memoHitsTotal.Value(), memoMissesTotal.Value()
	for i := 0; i < texts; i++ {
		s := c.Stmt(distinctText(i))
		if i%4 == 0 && c.Stmt(distinctText(i)) != s {
			t.Fatalf("text %d: two lookups returned different entries", i)
		}
	}
	if c.MemoOff() || c.MemoLen() != texts {
		t.Errorf("off=%v len=%d, want on with %d entries (hit ratio 1/5)", c.MemoOff(), c.MemoLen(), texts)
	}
	hits, misses := memoHitsTotal.Value()-hits0, memoMissesTotal.Value()-misses0
	if hits != texts/4 || misses != texts {
		t.Errorf("hits=%d misses=%d, want %d and %d", hits, misses, texts/4, texts)
	}
}

// Resident entries never exceed memoLimit: reaching the bound drops the
// entries and starts afresh.
func TestMemoBound(t *testing.T) {
	c := &TemplateCache{}
	peak := 0
	for i := 0; i < memoLimit+memoLimit/2; i++ {
		c.Stmt(distinctText(i))
		c.Stmt(distinctText(i)) // keep the hit ratio above probation's floor
		if n := c.MemoLen(); n > peak {
			peak = n
		}
	}
	if c.MemoOff() {
		t.Fatal("memo switched off on a log with a 1/2 hit ratio")
	}
	if peak != memoLimit {
		t.Errorf("peak resident entries %d, want exactly the bound %d", peak, memoLimit)
	}
	if n := c.MemoLen(); n != memoLimit/2 {
		t.Errorf("resident entries %d after the reset, want %d", n, memoLimit/2)
	}
}

// Hits on a shared memo from parallel workers: the lookup every pipeline
// worker makes per record.
func BenchmarkMemoHitParallel(b *testing.B) {
	c := &TemplateCache{}
	texts := make([]string, 1024)
	for i := range texts {
		texts[i] = distinctText(i)
		c.Stmt(texts[i])
		c.Stmt(texts[i])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Stmt(texts[i%len(texts)])
			i++
		}
	})
}
