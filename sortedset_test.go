package skipwebs

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// sortedSetAPI is the public surface OneDim, Blocked and Bucketed share;
// rangeAPI is the part only the two rangeable ones have.
type sortedSetAPI interface {
	floorSet
	ContainsBatch(keys []uint64, origins []HostID) ([]ContainsResult, error)
	InsertBatch(keys []uint64, origins []HostID) ([]int, error)
	DeleteBatch(keys []uint64, origins []HostID) ([]int, error)
	Len() int
	CheckConsistent() error
}

type rangeAPI interface {
	Range(lo, hi uint64, origin HostID) ([]uint64, int, error)
	RangeBatch(rs []KeyRange, origins []HostID) ([]RangeResult, error)
}

var sortedSetBuilders = []struct {
	name  string
	build func(c *Cluster, keys []uint64, o Options) (sortedSetAPI, error)
}{
	{"onedim", func(c *Cluster, keys []uint64, o Options) (sortedSetAPI, error) { return NewOneDim(c, keys, o) }},
	{"blocked", func(c *Cluster, keys []uint64, o Options) (sortedSetAPI, error) { return NewBlocked(c, keys, o) }},
	{"bucketed", func(c *Cluster, keys []uint64, o Options) (sortedSetAPI, error) { return NewBucketed(c, keys, o) }},
}

// setModel is the oracle: the stored keys as a sorted slice.
type setModel []uint64

func (m setModel) floor(q uint64) (uint64, bool) {
	i := sort.Search(len(m), func(i int) bool { return m[i] > q })
	if i == 0 {
		return 0, false
	}
	return m[i-1], true
}

func (m setModel) contains(k uint64) bool {
	f, ok := m.floor(k)
	return ok && f == k
}

func (m setModel) keyRange(lo, hi uint64) []uint64 {
	i := sort.Search(len(m), func(i int) bool { return m[i] >= lo })
	j := sort.Search(len(m), func(i int) bool { return m[i] > hi })
	return m[i:j]
}

func (m *setModel) insert(k uint64) {
	i := sort.Search(len(*m), func(i int) bool { return (*m)[i] >= k })
	*m = append(*m, 0)
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = k
}

func (m *setModel) remove(k uint64) {
	i := sort.Search(len(*m), func(i int) bool { return (*m)[i] >= k })
	*m = append((*m)[:i], (*m)[i+1:]...)
}

// TestSortedSetFrontEnd drives the one shared sorted-set front-end
// through every configuration that selects a different path in it:
// OneDim / Blocked / Bucketed (three engines, one with a run inserter,
// two with ranges) x WriteStripes {1, 4} x read caches {off, on}. Each
// cell replays one seeded stream of small floor / contains / range /
// insert / delete steps against three instances — cache-off driven
// through the synchronous methods, its cache-off twin driven through
// the batch methods (sorted single-origin insert steps engage run
// coalescing), and a cache-on instance — checking every answer against
// a sorted-slice model, every cache-off per-op cost and the final Stats
// between the two twins, and that the caches never charge more. The
// last row is the descent-error convention (descentErrorRows).
func TestSortedSetFrontEnd(t *testing.T) {
	for _, bb := range sortedSetBuilders {
		for _, stripes := range []int{1, 4} {
			bb, stripes := bb, stripes
			t.Run(fmt.Sprintf("%s/stripes=%d", bb.name, stripes), func(t *testing.T) {
				const hosts, nkeys, nsteps = 16, 600, 400
				rng := xrand.New(41)
				keys := distinctKeys(rng, nkeys+400)
				fresh := keys[nkeys:]
				model := setModel(append([]uint64(nil), keys[:nkeys]...))
				sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })

				off := Options{Seed: 9, WriteStripes: stripes}
				on := off
				on.CacheFingers, on.NegativeBloom = true, true
				var cs [3]*Cluster
				var ws [3]sortedSetAPI // sync cache-off, batch cache-off, sync cache-on
				for i, o := range []Options{off, off, on} {
					cs[i] = NewCluster(hosts)
					defer cs[i].Close()
					w, err := bb.build(cs[i], keys[:nkeys], o)
					if err != nil {
						t.Fatal(err)
					}
					ws[i] = w
				}
				syncOff, batchOff, syncOn := ws[0], ws[1], ws[2]

				var inserted []uint64
				for step := 0; step < nsteps; step++ {
					n := 1 + rng.Intn(8)
					origins := make([]HostID, n)
					for i := range origins {
						origins[i] = HostID(rng.Intn(hosts))
					}
					// Queries mix a few hot keys (from few origins, so exact
					// repeats hit the finger cache), the gaps just below
					// stored keys (floors that cross stripe boundaries) and
					// random probes.
					probe := func(i int) uint64 {
						switch rng.Intn(3) {
						case 0:
							origins[i] %= 2
							return keys[rng.Intn(8)]
						case 1:
							return model[rng.Intn(len(model))] - 1
						}
						return rng.Uint64n(1 << 40)
					}
					switch kind := rng.Intn(10); {
					case kind < 3: // floor
						qs := make([]uint64, n)
						for i := range qs {
							qs[i] = probe(i)
						}
						batch, err := batchOff.FloorBatch(qs, origins)
						if err != nil {
							t.Fatalf("step %d FloorBatch: %v", step, err)
						}
						for i, q := range qs {
							wantKey, wantOK := model.floor(q)
							a, err1 := syncOff.Floor(q, origins[i])
							c, err2 := syncOn.Floor(q, origins[i])
							if err1 != nil || err2 != nil {
								t.Fatalf("step %d Floor(%d): %v / %v", step, q, err1, err2)
							}
							for _, r := range []FloorResult{a, batch[i], c} {
								if r.Found != wantOK || r.Key != wantKey {
									t.Fatalf("step %d Floor(%d) = %+v, model (%d, %v)", step, q, r, wantKey, wantOK)
								}
							}
							if a.Hops != batch[i].Hops || c.Hops > a.Hops {
								t.Fatalf("step %d Floor(%d) hops: sync %d, batch %d, cached %d", step, q, a.Hops, batch[i].Hops, c.Hops)
							}
						}
					case kind < 5: // contains
						qs := make([]uint64, n)
						for i := range qs {
							qs[i] = probe(i)
						}
						batch, err := batchOff.ContainsBatch(qs, origins)
						if err != nil {
							t.Fatalf("step %d ContainsBatch: %v", step, err)
						}
						for i, q := range qs {
							want := model.contains(q)
							a, ah, err1 := syncOff.Contains(q, origins[i])
							c, ch, err2 := syncOn.Contains(q, origins[i])
							if err1 != nil || err2 != nil {
								t.Fatalf("step %d Contains(%d): %v / %v", step, q, err1, err2)
							}
							if a != want || batch[i].Found != want || c != want {
								t.Fatalf("step %d Contains(%d) = %v / %v / %v, model %v", step, q, a, batch[i].Found, c, want)
							}
							if ah != batch[i].Hops || ch > ah {
								t.Fatalf("step %d Contains(%d) hops: sync %d, batch %d, cached %d", step, q, ah, batch[i].Hops, ch)
							}
						}
					case kind < 6: // range (Blocked and Bucketed)
						if _, ok := syncOff.(rangeAPI); !ok {
							continue
						}
						rs := make([]KeyRange, n)
						for i := range rs {
							lo := probe(i)
							rs[i] = KeyRange{Lo: lo, Hi: lo + rng.Uint64n(1<<34)}
						}
						batch, err := batchOff.(rangeAPI).RangeBatch(rs, origins)
						if err != nil {
							t.Fatalf("step %d RangeBatch: %v", step, err)
						}
						for i, r := range rs {
							want := model.keyRange(r.Lo, r.Hi)
							a, ah, err1 := syncOff.(rangeAPI).Range(r.Lo, r.Hi, origins[i])
							c, _, err2 := syncOn.(rangeAPI).Range(r.Lo, r.Hi, origins[i])
							if err1 != nil || err2 != nil {
								t.Fatalf("step %d Range%v: %v / %v", step, r, err1, err2)
							}
							for _, got := range [][]uint64{a, batch[i].Keys, c} {
								if fmt.Sprint(got) != fmt.Sprint(want) {
									t.Fatalf("step %d Range%v = %v, model %v", step, r, got, want)
								}
							}
							if ah != batch[i].Hops {
								t.Fatalf("step %d Range%v hops: sync %d, batch %d", step, r, ah, batch[i].Hops)
							}
						}
					case kind < 8 && len(fresh) >= n: // insert
						ks := fresh[:n]
						fresh = fresh[n:]
						if rng.Intn(2) == 0 {
							// One origin, ascending keys: a sorted run.
							sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
							for i := range origins {
								origins[i] = origins[0]
							}
						}
						batch, err := batchOff.InsertBatch(ks, origins)
						if err != nil {
							t.Fatalf("step %d InsertBatch: %v", step, err)
						}
						for i, k := range ks {
							h, err1 := syncOff.Insert(k, origins[i])
							_, err2 := syncOn.Insert(k, origins[i])
							if err1 != nil || err2 != nil {
								t.Fatalf("step %d Insert(%d): %v / %v", step, k, err1, err2)
							}
							if h != batch[i] {
								t.Fatalf("step %d Insert(%d) hops: sync %d, batch %d", step, k, h, batch[i])
							}
							model.insert(k)
						}
						inserted = append(inserted, ks...)
					default: // delete
						var ks []uint64
						if rng.Intn(2) == 0 && len(inserted) >= n {
							ks, inserted = inserted[:n], inserted[n:]
						} else {
							// Any stored key, so stripes also thin out at
							// their low end and floors fall back.
							ks, origins = []uint64{model[rng.Intn(len(model))]}, origins[:1]
							for i, k := range inserted {
								if k == ks[0] {
									inserted = append(inserted[:i:i], inserted[i+1:]...)
									break
								}
							}
						}
						batch, err := batchOff.DeleteBatch(ks, origins)
						if err != nil {
							t.Fatalf("step %d DeleteBatch: %v", step, err)
						}
						for i, k := range ks {
							h, err1 := syncOff.Delete(k, origins[i])
							_, err2 := syncOn.Delete(k, origins[i])
							if err1 != nil || err2 != nil {
								t.Fatalf("step %d Delete(%d): %v / %v", step, k, err1, err2)
							}
							if h != batch[i] {
								t.Fatalf("step %d Delete(%d) hops: sync %d, batch %d", step, k, h, batch[i])
							}
							model.remove(k)
						}
					}
				}
				for i, w := range ws {
					if w.Len() != len(model) {
						t.Fatalf("instance %d holds %d keys, model %d", i, w.Len(), len(model))
					}
					if err := w.CheckConsistent(); err != nil {
						t.Fatalf("instance %d: %v", i, err)
					}
				}
				if a, b := cs[0].Stats(), cs[1].Stats(); a != b {
					t.Fatalf("cache-off twins diverge:\n sync  %+v\n batch %+v", a, b)
				}
				if st := cs[2].Stats(); st.CacheHits == 0 || st.BloomTrueNegatives == 0 ||
					st.TotalMessages >= cs[0].Stats().TotalMessages {
					t.Fatalf("caches did not pay off: %+v vs control %d msgs", st, cs[0].Stats().TotalMessages)
				}
			})
		}
	}
	t.Run("descent-error", descentErrorRows)
}

// descentErrorRows is the error row of TestSortedSetFrontEnd: after a
// crash beyond the replication tolerance (k = 1, as in
// TestCrashBeyondToleranceReportsLoss), a floor that lands on a lost
// unit fails with ErrHostDown on all three structures, and the result
// carries the hops and latency accumulated up to the failure — the cost
// of every stripe descended before it plus whatever the failing engine
// reports. The stripes' lowest keys are deleted first, so floors at a
// stripe's low end fall back into the stripe below and the accumulated
// part is non-zero even for OneDim, whose engine reports no cost on a
// failed descent.
func descentErrorRows(t *testing.T) {
	keys := distinctKeys(xrand.New(33), 400)
	// Small buckets, so that every host holds some of Bucketed's too.
	opts := Options{Seed: 33, WriteStripes: 4, BucketSize: 4}
	newCluster := func() *Cluster { return NewCluster(8, WithLatency(FixedLatency(3))) }
	t.Run("onedim", func(t *testing.T) {
		c := newCluster()
		w, err := NewOneDim(c, keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		descentErrorRow(t, c, &w.sortedSet, w)
	})
	t.Run("blocked", func(t *testing.T) {
		c := newCluster()
		w, err := NewBlocked(c, keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		descentErrorRow(t, c, &w.sortedSet, w)
	})
	t.Run("bucketed", func(t *testing.T) {
		c := newCluster()
		w, err := NewBucketed(c, keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		descentErrorRow(t, c, &w.sortedSet, w)
	})
}

func descentErrorRow[E keyEngine](t *testing.T, c *Cluster, s *sortedSet[E], w sortedSetAPI) {
	if s.st.n() != 4 {
		t.Fatalf("realized %d stripes, want 4", s.st.n())
	}
	for _, sep := range s.st.seps {
		if _, err := w.Delete(sep, 0); err != nil { // a separator is its stripe's lowest build key
			t.Fatal(err)
		}
	}
	var dl *DataLossError
	if err := c.Crash(c.HostAt(2)); !errors.As(err, &dl) || dl.Units <= 0 {
		t.Fatalf("k=1 crash returned %v, want DataLossError with positive units", err)
	}
	failed, afterFallback := 0, 0
	for i, sep := range s.st.seps {
		for o := 0; o < c.Hosts(); o++ {
			origin := c.HostAt(o)
			// The oracle replays the fallback on the engines directly.
			var want core.Cost
			var wantErr error
			for j := i + 1; j >= 0; j-- {
				_, ok, cost, err := s.ws[j].QueryCost(sep, origin)
				want.Hops += cost.Hops
				want.Latency += cost.Latency
				if wantErr = err; err != nil || ok {
					break
				}
			}
			r, err := w.Floor(sep, origin)
			if wantErr == nil {
				if err != nil {
					t.Fatalf("Floor(%d) from %d failed with %v, engines answer", sep, origin, err)
				}
				continue
			}
			if !errors.Is(err, ErrHostDown) {
				t.Fatalf("Floor(%d) from %d: %v, want ErrHostDown", sep, origin, err)
			}
			if r != (FloorResult{Hops: want.Hops, Latency: want.Latency}) {
				t.Fatalf("Floor(%d) from %d failed with %+v, want the accumulated cost %+v", sep, origin, r, want)
			}
			failed++
			if _, _, own, err := s.ws[i+1].QueryCost(sep, origin); err == nil && own.Hops > 0 {
				afterFallback++
			}
		}
	}
	if failed == 0 || afterFallback == 0 {
		t.Fatalf("%d floors failed, %d of them after a charged fallback; the row needs both", failed, afterFallback)
	}
}
