package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// atomicEngine is the face of BlockedWeb and BucketWeb the all-or-nothing
// Insert tests drive.
type atomicEngine struct {
	insert func(k uint64, origin sim.HostID) (int, error)
	query  func(k uint64, origin sim.HostID) (uint64, bool, int, error)
	size   func() int
	// torn reports a mismatch between the engine's own size bookkeeping
	// and what its ground list holds, or "" when they agree.
	torn    func() string
	restart func(h sim.HostID, op *sim.Op) int
	check   func() error
	// rekeys reports whether inserting k replaces the lowest separator: a
	// failed rekey restores the separator by re-inserting it, which keeps
	// every key but may leave the level hierarchy a different shape.
	rekeys func(k uint64) bool
}

func newAtomicEngine(t *testing.T, kind string, net *sim.Network, keys []uint64, k int, seed uint64) atomicEngine {
	t.Helper()
	switch kind {
	case "blocked":
		w, err := NewBlockedWeb(net, keys, BlockedConfig{Seed: seed, M: 8, Replicas: k})
		if err != nil {
			t.Fatal(err)
		}
		return atomicEngine{
			insert: w.Insert, query: w.Query, size: w.Len,
			torn: func() string {
				if w.Ground().Len() != w.Len() {
					return fmt.Sprintf("ground list holds %d keys, Len() is %d", w.Ground().Len(), w.Len())
				}
				return ""
			},
			restart: w.RestartHost, check: w.CheckInvariants,
			rekeys: func(uint64) bool { return false },
		}
	default:
		b, err := NewBucketWeb(net, keys, 6, 8, seed, k)
		if err != nil {
			t.Fatal(err)
		}
		return atomicEngine{
			insert: b.Insert, query: b.Query, size: b.Len,
			torn: func() string {
				ground := b.web.Ground()
				if ground.Len() != b.NumBuckets() {
					return fmt.Sprintf("%d separators for %d buckets", ground.Len(), b.NumBuckets())
				}
				for r := ground.Next(ground.Head()); r != NoRange; r = ground.Next(r) {
					if b.buckets[ground.Key(r)] == nil {
						return fmt.Sprintf("separator %d has no bucket", ground.Key(r))
					}
				}
				return ""
			},
			restart: b.RestartHost, check: b.CheckInvariants,
			rekeys: func(k uint64) bool {
				ground := b.web.Ground()
				first := ground.Next(ground.Head())
				return first != NoRange && k < ground.Key(first)
			},
		}
	}
}

// hostImages snapshots what every host stores: the durable image covers
// crashed hosts too (their live counter reads zero while they are down).
func hostImages(net *sim.Network) []int64 {
	out := make([]int64, net.Hosts())
	for h := range out {
		out[h] = net.DurableImage(sim.HostID(h))
	}
	return out
}

// TestInsertAllOrNothing pins the contract a failed Insert must keep on
// BlockedWeb and BucketWeb: with enough hosts crashed that some blocks
// have no live replica (one crash at k = 1, two simultaneous crashes at
// k = 2, on a durable fabric so nothing is lost), an Insert that returns a
// host-down error leaves no trace — same size, ground list and size
// bookkeeping in agreement, every host's storage as before — no key
// acknowledged earlier goes missing, nothing panics, and once the hosts
// restart the invariants hold and every acknowledged key is found.
func TestInsertAllOrNothing(t *testing.T) {
	for _, kind := range []string{"blocked", "bucket"} {
		for k := 1; k <= 2; k++ {
			t.Run(fmt.Sprintf("%s/k%d", kind, k), func(t *testing.T) {
				rng := xrand.New(uint64(100 + k))
				net := sim.NewNetwork(10)
				net.EnableDurability(0)
				net.PauseDurability()
				stored := distinctKeys(rng, 400, 1<<32)
				for i := range stored {
					stored[i] += 1 << 20 // room below for separator rekeys
				}
				e := newAtomicEngine(t, kind, net, stored, k, 7)
				net.ResumeDurability()
				// Adjacent hosts: round-robin placement puts a unit's two
				// replicas on neighbours, so crashing both kills whole units.
				down := []sim.HostID{net.LiveAt(2), net.LiveAt(3)}[:k]
				for _, h := range down {
					net.Crash(h)
				}
				failed := 0
				for i := 0; i < 1500; i++ {
					key := rng.Uint64n(1<<33) + 1
					if i%16 == 0 {
						key = rng.Uint64n(1<<20) + 1
					}
					if slices.Contains(stored, key) {
						continue
					}
					origin := net.LiveAt(i % net.LiveHosts())
					sizeBefore, imagesBefore, rekey := e.size(), hostImages(net), e.rekeys(key)
					_, err := e.insert(key, origin)
					if err == nil {
						stored = append(stored, key)
					} else {
						if !errors.Is(err, sim.ErrHostDown) {
							t.Fatalf("insert %d: %v, want a host-down error", key, err)
						}
						failed++
						if e.size() != sizeBefore {
							t.Fatalf("failed insert %d changed Len from %d to %d", key, sizeBefore, e.size())
						}
						if got := hostImages(net); !rekey && !slices.Equal(got, imagesBefore) {
							t.Fatalf("failed insert %d changed per-host storage:\nbefore %v\nafter  %v", key, imagesBefore, got)
						}
					}
					if msg := e.torn(); msg != "" {
						t.Fatalf("after insert %d (err %v): %s", key, err, msg)
					}
					if e.size() != len(stored) {
						t.Fatalf("after insert %d: Len() is %d, %d keys acknowledged", key, e.size(), len(stored))
					}
				}
				if failed == 0 {
					t.Fatal("no insert failed: the schedule does not exercise the unwind")
				}
				for i := len(down) - 1; i >= 0; i-- {
					net.Restart(down[i])
					op := net.NewOp(down[i])
					e.restart(down[i], op)
					op.Free()
				}
				if err := e.check(); err != nil {
					t.Fatalf("invariants after restart (%d inserts failed): %v", failed, err)
				}
				for i, key := range stored {
					got, ok, _, err := e.query(key, net.LiveAt(i%net.LiveHosts()))
					if err != nil || !ok || got != key {
						t.Fatalf("acknowledged key %d lost: floor %d, found %v, err %v", key, got, ok, err)
					}
				}
			})
		}
	}
}

// TestBucketRekeyFailureRestoresSeparator drives BucketWeb's lowest-
// separator rekey (delete the old separator, insert the new key as
// separator) into its awkward failure: the delete succeeds and the insert
// then meets a dead block. The old separator must come back — this seed
// sends four rekeys down that path — so separators and buckets still
// correspond, no stored key is lost, and a later insert does not
// dereference a separator without a bucket.
func TestBucketRekeyFailureRestoresSeparator(t *testing.T) {
	rng := xrand.New(4)
	net := sim.NewNetwork(10)
	net.EnableDurability(0)
	net.PauseDurability()
	stored := distinctKeys(rng, 300, 1<<32)
	for i := range stored {
		stored[i] += 1 << 24
	}
	e := newAtomicEngine(t, "bucket", net, stored, 1, 4)
	net.ResumeDurability()
	down := net.LiveAt(4)
	net.Crash(down)
	failedRekeys := 0
	for i := 0; i < 300; i++ {
		key := rng.Uint64n(1<<24) + 1
		if slices.Contains(stored, key) {
			continue
		}
		rekey := e.rekeys(key)
		if _, err := e.insert(key, net.LiveAt(i%net.LiveHosts())); err == nil {
			stored = append(stored, key)
		} else if rekey {
			failedRekeys++
		}
		if msg := e.torn(); msg != "" {
			t.Fatalf("after insert %d: %s", key, msg)
		}
		if e.size() != len(stored) {
			t.Fatalf("after insert %d: Len() is %d, %d keys acknowledged", key, e.size(), len(stored))
		}
	}
	if failedRekeys == 0 {
		t.Fatal("no rekey failed: the schedule does not exercise the restore")
	}
	net.Restart(down)
	op := net.NewOp(down)
	e.restart(down, op)
	op.Free()
	if err := e.check(); err != nil {
		t.Fatalf("invariants after restart: %v", err)
	}
	for i, key := range stored {
		if got, ok, _, err := e.query(key, net.LiveAt(i%net.LiveHosts())); err != nil || !ok || got != key {
			t.Fatalf("acknowledged key %d lost: floor %d, found %v, err %v", key, got, ok, err)
		}
	}
}
