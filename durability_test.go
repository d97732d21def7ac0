package skipwebs

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/skipwebs/skipwebs/internal/xrand"
)

// TestRestartShardIntact is the tentpole acceptance property: on a
// durable cluster a crashed host Restarts with its shard intact — the
// checkpoint+WAL replay restores its storage exactly, the merkle
// reconcile against live peers finds zero divergence (nothing changed
// while it was down), and not one unit is re-copied.
func TestRestartShardIntact(t *testing.T) {
	f := buildFixture(t, 8, 2, 901, true)
	control := buildFixture(t, 8, 2, 901, true)
	victim := f.c.HostAt(3)
	before := f.c.net.Storage(victim)
	if before == 0 {
		t.Fatal("fixture placed nothing on the victim — pick another host")
	}
	if err := f.c.Crash(victim); err != nil {
		t.Fatalf("durable crash returned %v, want nil (the host is expected back)", err)
	}
	if got := f.c.net.Storage(victim); got != 0 {
		t.Fatalf("crashed storage = %d, want 0", got)
	}
	// Failover keeps every query answerable from surviving replicas.
	got, want := f.queryAll(t, 777), control.queryAll(t, 777)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mid-crash answer %d = %v, control says %v", i, got[i], want[i])
		}
	}

	stats, err := f.c.Restart(victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if stats.CopiedUnits != 0 {
		t.Fatalf("restart with no divergence copied %d units, want 0", stats.CopiedUnits)
	}
	if stats.ReplayMsgs < 1 {
		t.Fatalf("replay messages = %d, want >= 1 (the checkpoint load)", stats.ReplayMsgs)
	}
	if stats.MerkleMsgs < 1 {
		t.Fatalf("merkle messages = %d, want >= 1 (the root comparison walk)", stats.MerkleMsgs)
	}
	if got := f.c.net.Storage(victim); got != before {
		t.Fatalf("restored storage = %d, want the pre-crash %d", got, before)
	}
	if err := f.c.CheckConsistent(); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	got, want = f.queryAll(t, 778), control.queryAll(t, 778)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-restart answer %d = %v, control says %v", i, got[i], want[i])
		}
	}
	f.checkAllKeys(t, "after restart")
	// The restored image is exact: a cooperative Leave migrates every
	// unit off and leaves zero residual storage, so replay did not
	// resurrect stale units or drop live ones.
	if err := f.c.Leave(victim); err != nil {
		t.Fatalf("leave after restart: %v", err)
	}
	if got := f.c.net.Storage(victim); got != 0 {
		t.Fatalf("residual storage after leave = %d, want 0 (image was inexact)", got)
	}
	if err := f.c.CheckConsistent(); err != nil {
		t.Fatalf("after leave: %v", err)
	}
}

// TestRestartAfterDivergence crashes a host, runs inserts and deletes
// while it is down (write-throughs to its stale replicas are suppressed
// and recorded as divergence), then Restarts it: the merkle reconcile
// must copy the diverged units — and only then do answers match a
// crash-free control that saw the same updates.
func TestRestartAfterDivergence(t *testing.T) {
	const seed = 902
	f := buildFixture(t, 8, 2, seed, true)
	control := buildFixture(t, 8, 2, seed, true)
	// Same rng, longer run: [:300] reproduces the fixture keys, the
	// tail is fresh and distinct from them.
	all := distinctKeys(xrand.New(seed), 400)
	fresh := all[300:]

	victim := f.c.HostAt(3)
	if err := f.c.Crash(victim); err != nil {
		t.Fatalf("durable crash: %v", err)
	}
	mutate := func(x *failoverFixture) {
		t.Helper()
		for i, k := range fresh {
			origin := x.c.HostAt(i)
			if _, err := x.oned.Insert(k, origin); err != nil {
				t.Fatalf("onedim insert: %v", err)
			}
			if _, err := x.block.Insert(k, origin); err != nil {
				t.Fatalf("blocked insert: %v", err)
			}
			if _, err := x.bucket.Insert(k, origin); err != nil {
				t.Fatalf("bucketed insert: %v", err)
			}
		}
		for i, k := range f.keys[:40] {
			origin := x.c.HostAt(i + 1)
			if _, err := x.oned.Delete(k, origin); err != nil {
				t.Fatalf("onedim delete: %v", err)
			}
			if _, err := x.block.Delete(k, origin); err != nil {
				t.Fatalf("blocked delete: %v", err)
			}
			if _, err := x.bucket.Delete(k, origin); err != nil {
				t.Fatalf("bucketed delete: %v", err)
			}
		}
	}
	mutate(f)
	mutate(control)

	stats, err := f.c.Restart(victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if stats.CopiedUnits == 0 {
		t.Fatal("updates diverged the victim's replicas but restart copied 0 units")
	}
	if err := f.c.CheckConsistent(); err != nil {
		t.Fatalf("after divergent restart: %v", err)
	}
	check := func(x *failoverFixture, name string) {
		t.Helper()
		for i, k := range append(append([]uint64{}, f.keys[40:]...), fresh...) {
			origin := x.c.HostAt(i)
			if ok, _, err := x.oned.Contains(k, origin); err != nil || !ok {
				t.Fatalf("%s: onedim lost key %d: %v", name, k, err)
			}
			if r, err := x.block.Floor(k, origin); err != nil || !r.Found || r.Key != k {
				t.Fatalf("%s: blocked lost key %d: %v", name, k, err)
			}
			if r, err := x.bucket.Floor(k, origin); err != nil || !r.Found || r.Key != k {
				t.Fatalf("%s: bucketed lost key %d: %v", name, k, err)
			}
		}
	}
	check(f, "restarted")
	check(control, "control")
	got, want := f.queryAll(t, 881), control.queryAll(t, 881)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-reconcile answer %d = %v, control says %v", i, got[i], want[i])
		}
	}
}

// TestRestartAfterFailedInserts pins the all-or-nothing Insert contract
// of Blocked and Bucketed through the public API: an unreplicated durable
// cluster loses a host, a long stream of inserts runs against it — those
// whose climb meets a block on the down host fail with a host-down error
// half-way up — and the host restarts. No data was lost, so the cluster
// must check consistent, every acknowledged key must be found, and every
// refused key must be absent: a failed Insert leaves no trace.
func TestRestartAfterFailedInserts(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		keys := distinctKeys(rng, 1800)
		c := NewCluster(16)
		opts := Options{Seed: seed, BucketSize: 8, Durable: true}
		blocked, err := NewBlocked(c, keys[:600], opts)
		if err != nil {
			t.Fatal(err)
		}
		bucketed, err := NewBucketed(c, keys[:600], opts)
		if err != nil {
			t.Fatal(err)
		}
		victim := c.HostAt(3)
		if err := c.Crash(victim); err != nil {
			t.Fatalf("durable crash: %v", err)
		}
		type row struct {
			name   string
			insert func(uint64, HostID) (int, error)
			floor  func(uint64, HostID) (FloorResult, error)
			lost   map[uint64]bool
		}
		rows := []row{
			{"blocked", blocked.Insert, blocked.Floor, map[uint64]bool{}},
			{"bucketed", bucketed.Insert, bucketed.Floor, map[uint64]bool{}},
		}
		for _, r := range rows {
			for _, k := range keys[600:] {
				if _, err := r.insert(k, c.HostAt(0)); err != nil {
					if !errors.Is(err, ErrHostDown) {
						t.Fatalf("seed %d: %s insert %d: %v, want a host-down error", seed, r.name, k, err)
					}
					r.lost[k] = true
				}
			}
			if len(r.lost) == 0 {
				t.Fatalf("seed %d: no %s insert failed; the crash is not in the way", seed, r.name)
			}
		}
		if _, err := c.Restart(victim); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if err := c.CheckConsistent(); err != nil {
			t.Fatalf("seed %d: after restart: %v", seed, err)
		}
		for _, r := range rows {
			for i, k := range keys {
				res, err := r.floor(k, c.HostAt(i))
				if err != nil {
					t.Fatalf("seed %d: %s floor %d: %v", seed, r.name, k, err)
				}
				if found := res.Found && res.Key == k; found == r.lost[k] {
					t.Fatalf("seed %d: %s key %d: found %v, insert refused %v", seed, r.name, k, found, r.lost[k])
				}
			}
		}
	}
}

// TestRestartValidation pins the clean-error contract of
// Cluster.Restart.
func TestRestartValidation(t *testing.T) {
	// Non-durable cluster: Restart is meaningless.
	c := NewCluster(4)
	rng := xrand.New(5)
	if _, err := NewOneDim(c, distinctKeys(rng, 64), Options{Seed: 5, Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	victim := c.HostAt(1)
	if err := c.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if _, err := c.Restart(victim); err == nil || !strings.Contains(err.Error(), "durable") {
		t.Fatalf("restart on non-durable cluster returned %v, want a durability error", err)
	}

	// Durable cluster: only a crashed host restarts.
	d := NewCluster(4)
	if _, err := NewOneDim(d, distinctKeys(xrand.New(6), 64), Options{Seed: 6, Replicas: 2, Durable: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Restart(d.HostAt(1)); err == nil || !strings.Contains(err.Error(), "not crashed") {
		t.Fatalf("restart of a live host returned %v, want a not-crashed error", err)
	}
	if _, err := d.Restart(HostID(999)); err == nil {
		t.Fatal("restart of an unknown host succeeded")
	}
	target := d.HostAt(2)
	if err := d.Crash(target); err != nil {
		t.Fatalf("durable crash: %v", err)
	}
	if _, err := d.Restart(target); err != nil {
		t.Fatalf("valid restart failed: %v", err)
	}
	if _, err := d.Restart(target); err == nil {
		t.Fatal("second restart of the same host succeeded")
	}
}

// TestDataLossErrorMessage pins that DataLossError says what was lost:
// the unit count, the dead hosts, and the per-structure split.
func TestDataLossErrorMessage(t *testing.T) {
	e := &DataLossError{
		Units:      7,
		Hosts:      []HostID{2, 5},
		Structures: map[string]int{"onedim": 3, "blocked": 4},
	}
	want := "core: 7 storage units lost (no surviving replica); dead hosts [2 5]; per structure: blocked=4, onedim=3"
	if got := e.Error(); got != want {
		t.Fatalf("DataLossError message:\n got %q\nwant %q", got, want)
	}

	// End to end: a k=1 crash on a durable cluster loses units only
	// when Repair gives the host up — and the error then names the dead
	// host and every structure that lost units.
	f := buildFixture(t, 8, 1, 903, true)
	victim := f.c.HostAt(2)
	if err := f.c.Crash(victim); err != nil {
		t.Fatalf("durable crash returned %v, want nil even at k=1 (Restart could still save it)", err)
	}
	err := f.c.Repair()
	var dl *DataLossError
	if !errors.As(err, &dl) {
		t.Fatalf("k=1 repair returned %v, want DataLossError", err)
	}
	if dl.Units <= 0 {
		t.Fatalf("lost units = %d, want > 0", dl.Units)
	}
	if len(dl.Hosts) != 1 || dl.Hosts[0] != victim {
		t.Fatalf("dead hosts = %v, want [%d]", dl.Hosts, victim)
	}
	if len(dl.Structures) == 0 {
		t.Fatal("per-structure breakdown is empty")
	}
	sum := 0
	for name, units := range dl.Structures {
		if units <= 0 {
			t.Fatalf("structure %q reports %d lost units", name, units)
		}
		sum += units
	}
	if sum != dl.Units {
		t.Fatalf("per-structure units sum to %d, total says %d", sum, dl.Units)
	}
	if !strings.Contains(err.Error(), "dead hosts") {
		t.Fatalf("aggregated error %q does not name the dead hosts", err)
	}
}

// TestRepairDischargesImage pins the repair/restart interlock: Repair
// gives up a crashed host's replicas (re-homing them onto survivors)
// and discharges its durable image, so a later Restart brings the host
// back live but without the units repair already re-homed — nothing is
// double-counted or resurrected.
func TestRepairDischargesImage(t *testing.T) {
	f := buildFixture(t, 8, 2, 904, true)
	victim := f.c.HostAt(3)
	if err := f.c.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := f.c.Repair(); err != nil {
		t.Fatalf("k=2 repair lost units: %v", err)
	}
	if img := f.c.net.DurableImage(victim); img != 0 {
		t.Fatalf("durable image after give-up repair = %d, want 0", img)
	}
	stats, err := f.c.Restart(victim)
	if err != nil {
		t.Fatalf("restart after repair: %v", err)
	}
	if stats.CopiedUnits != 0 {
		t.Fatalf("restart after repair copied %d units, want 0 (repair owns them now)", stats.CopiedUnits)
	}
	if got := f.c.net.Storage(victim); got != 0 {
		t.Fatalf("storage after restart = %d, want 0 (the shard was repaired away)", got)
	}
	if err := f.c.CheckConsistent(); err != nil {
		t.Fatalf("after repair+restart: %v", err)
	}
	f.checkAllKeys(t, "after repair+restart")
	// The revived host is a first-class citizen again: it can host new
	// load via a Join rebalance... or simply crash again cleanly.
	f.c.Join()
	if err := f.c.CheckConsistent(); err != nil {
		t.Fatalf("after regrow: %v", err)
	}
}

// TestDurableDoubleFailure is the double-failure property (run with
// -race): a second host crashes while the first one's recovery is
// racing reads, at Replicas 3 on the blocked and bucketed engines.
// Every interleaving must either answer exactly like a crash-free
// control or fail with a typed error — never silently diverge.
func TestDurableDoubleFailure(t *testing.T) {
	const seed = 905
	c := NewCluster(10)
	control := NewCluster(10)
	keys := distinctKeys(xrand.New(seed), 500)
	build := func(cl *Cluster) (*Blocked, *Bucketed) {
		t.Helper()
		bl, err := NewBlocked(cl, keys[:300], Options{Seed: seed, Replicas: 3, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		bu, err := NewBucketed(cl, keys[:300], Options{Seed: seed + 1, Replicas: 3, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		return bl, bu
	}
	bl, bu := build(c)
	cbl, cbu := build(control)

	h1, h2 := c.HostAt(2), c.HostAt(5)
	if err := c.Crash(h1); err != nil {
		t.Fatalf("first crash: %v", err)
	}
	// Diverge the down host's replicas.
	if _, err := bl.InsertBatch(keys[300:400], nil); err != nil {
		t.Fatalf("blocked inserts: %v", err)
	}
	if _, err := bu.InsertBatch(keys[300:400], nil); err != nil {
		t.Fatalf("bucketed inserts: %v", err)
	}

	// Race: h1's restart, h2's crash, and floor batches all in flight.
	// The write lock serializes restart against crash in either order;
	// k=3 keeps a live replica through any interleaving.
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		if _, err := c.Restart(h1); err != nil {
			t.Errorf("restart h1: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := c.Crash(h2); err != nil {
			t.Errorf("crash h2: %v", err)
		}
	}()
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				rs, err := bl.FloorBatch(keys[:100], nil)
				if err != nil {
					t.Errorf("reader %d blocked batch: %v", g, err)
					return
				}
				for i, fr := range rs {
					if !fr.Found || fr.Key != keys[i] {
						t.Errorf("reader %d: blocked floor(%d) = (%d,%v) mid-recovery", g, keys[i], fr.Key, fr.Found)
						return
					}
				}
				if _, err := bu.FloorBatch(keys[100:200], nil); err != nil {
					t.Errorf("reader %d bucketed batch: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if _, err := c.Restart(h2); err != nil {
		t.Fatalf("restart h2: %v", err)
	}
	if err := c.CheckConsistent(); err != nil {
		t.Fatalf("after double failure: %v", err)
	}
	// The control applies the same inserts crash-free; every answer must
	// agree.
	if _, err := cbl.InsertBatch(keys[300:400], nil); err != nil {
		t.Fatalf("control blocked inserts: %v", err)
	}
	if _, err := cbu.InsertBatch(keys[300:400], nil); err != nil {
		t.Fatalf("control bucketed inserts: %v", err)
	}
	rng := xrand.New(999)
	for i := 0; i < 300; i++ {
		q := rng.Uint64n(1 << 40)
		origin, corigin := c.HostAt(i), control.HostAt(i)
		gb, err := bl.Floor(q, origin)
		if err != nil {
			t.Fatalf("blocked floor: %v", err)
		}
		wb, err := cbl.Floor(q, corigin)
		if err != nil {
			t.Fatalf("control blocked floor: %v", err)
		}
		if gb.Key != wb.Key || gb.Found != wb.Found {
			t.Fatalf("blocked floor(%d) = (%d,%v), control says (%d,%v)", q, gb.Key, gb.Found, wb.Key, wb.Found)
		}
		gu, err := bu.Floor(q, origin)
		if err != nil {
			t.Fatalf("bucketed floor: %v", err)
		}
		wu, err := cbu.Floor(q, corigin)
		if err != nil {
			t.Fatalf("control bucketed floor: %v", err)
		}
		if gu.Key != wu.Key || gu.Found != wu.Found {
			t.Fatalf("bucketed floor(%d) = (%d,%v), control says (%d,%v)", q, gu.Key, gu.Found, wu.Key, wu.Found)
		}
	}
}

// TestDurableOffBitIdentical pins the opt-in guarantee: with
// Options.Durable left false the cluster never becomes durable and the
// message accounting is bit-identical to a durable build's control —
// durability is charged only when asked for.
func TestDurableOffBitIdentical(t *testing.T) {
	a := buildFixture(t, 8, 2, 906, false)
	b := buildFixture(t, 8, 2, 906, false)
	if a.c.net.Durable() {
		t.Fatal("Durable=false build enabled durability")
	}
	// Two identical non-durable builds agree on total traffic...
	if am, bm := a.c.net.TotalMessages(), b.c.net.TotalMessages(); am != bm {
		t.Fatalf("identical builds disagree on messages: %d vs %d", am, bm)
	}
	// ...and a durable build charges extra only after construction
	// (builds are folded into checkpoints, not WAL-logged).
	d := buildFixture(t, 8, 2, 906, true)
	if am, dm := a.c.net.TotalMessages(), d.c.net.TotalMessages(); am != dm {
		t.Fatalf("durable build charged %d messages during construction, non-durable %d — bulk builds must be WAL-free", dm, am)
	}
	na, _ := a.oned.Insert(distinctKeys(xrand.New(42), 301)[300], a.c.HostAt(0))
	nd, _ := d.oned.Insert(distinctKeys(xrand.New(42), 301)[300], d.c.HostAt(0))
	if na != nd {
		t.Fatalf("per-op hop counts diverged: %d vs %d (durability I/O must not bill the op)", na, nd)
	}
	if am, dm := a.c.net.TotalMessages(), d.c.net.TotalMessages(); dm <= am {
		t.Fatalf("durable insert charged no WAL traffic: %d vs %d", dm, am)
	}
}

// TestWriterRacesRestartDurable races a striped writer against durable
// crash/Restart cycles: while concurrent insert batches run
// (WriteStripes 4, Replicas 2, Durable), a host is crashed — its disk
// image surviving — and Restarted, the checkpoint+WAL replay and merkle
// reconcile running under the churn write lock while the writer's
// batches drain and resume. Afterwards the structure must be exactly
// consistent, with every batch that reported success fully present, and
// the restarted host's storage must equal its durable image.
func TestWriterRacesRestartDurable(t *testing.T) {
	const hosts, stripes, build, chunk = 8, 4, 512, 32
	keys := distinctKeys(xrand.New(71), build+768)
	c := NewCluster(hosts)
	defer c.Close()
	w, err := NewBlocked(c, keys[:build], Options{Seed: 23, Replicas: 2, Durable: true, WriteStripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	pool := keys[build:]
	var mu sync.Mutex
	var okChunks [][]uint64
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		for i := 0; i+chunk <= len(pool); i += chunk {
			ck := pool[i : i+chunk]
			if _, err := w.InsertBatch(ck, nil); err == nil {
				mu.Lock()
				okChunks = append(okChunks, ck)
				mu.Unlock()
			} else if !errors.Is(err, ErrHostDown) {
				t.Errorf("insert batch: %v", err)
				return
			}
		}
	}()
	// Crash/Restart cycles racing the writer's whole pool. The writer
	// keeps batching while the victim is down: writes to its replicas
	// are suppressed and recorded as divergence for the restart's
	// merkle reconcile to re-copy.
	victim := c.HostAt(4)
	for round := 0; round < 3; round++ {
		if err := c.Crash(victim); err != nil {
			t.Errorf("durable crash: %v", err)
			break
		}
		if _, err := c.Restart(victim); err != nil {
			t.Errorf("restart: %v", err)
			break
		}
	}
	writerDone.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.CheckConsistent(); err != nil {
		t.Fatalf("after restart cycles: %v", err)
	}
	if got, img := c.net.Storage(victim), c.net.DurableImage(victim); got != img {
		t.Fatalf("restarted storage %d != durable image %d", got, img)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(okChunks) == 0 {
		t.Fatal("no insert batch completed — the race never happened")
	}
	for _, ck := range okChunks {
		rs, err := w.FloorBatch(ck, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if !r.Found || r.Key != ck[i] {
				t.Fatalf("committed key %d lost across restart: %+v", ck[i], r)
			}
		}
	}
}
