package core

import (
	"testing"

	"github.com/skipwebs/skipwebs/internal/xrand"
)

// benchLevel builds a 100k-key level for the Locate benchmarks.
func benchLevel(b *testing.B) (*ListLevel, []uint64) {
	b.Helper()
	const n = 100_000
	rng := xrand.New(99)
	keys := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for len(keys) < n {
		k := rng.Uint64n(1 << 40)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	l, err := NewListLevel(keys)
	if err != nil {
		b.Fatal(err)
	}
	return l, keys
}

// BenchmarkListLevelLocate measures the maintained-sorted-order binary
// search on a 100k-key list.
func BenchmarkListLevelLocate(b *testing.B) {
	l, _ := benchLevel(b)
	qrng := xrand.New(100)
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Locate(qrng.Uint64n(1 << 40))
		}
	})
}

// BenchmarkListLevelInsertDeadHint measures InsertKey's fallback path:
// the hint is always NoRange, so every insert pays the full local search
// (binary since PR 2; previously an O(n) head walk).
func BenchmarkListLevelInsertDeadHint(b *testing.B) {
	l, _ := benchLevel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keys above the stored range are unique per iteration.
		if _, err := l.InsertKey(1<<41+uint64(i), NoRange); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListLevelChurn measures a steady-state random insert+delete
// pair at arbitrary positions in a 100k-key list. This is the workload
// the sorted-order index's pending-buffer design exists for: an eagerly
// maintained sorted array would memmove ~half the list (~800KB) per
// update, while the buffered index pays O(pendMax) plus an amortized
// rebuild share.
func BenchmarkListLevelChurn(b *testing.B) {
	l, keys := benchLevel(b)
	rng := xrand.New(102)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := keys[rng.Intn(len(keys))]
		if _, _, err := l.DeleteKey(victim); err != nil {
			b.Fatal(err)
		}
		if _, err := l.InsertKey(victim, NoRange); err != nil {
			b.Fatal(err)
		}
	}
}
