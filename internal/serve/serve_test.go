package serve

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
)

// TestWireParity is the load-bearing acceptance test of the wire
// transport: a 4-host daemon cluster replays a seeded golden workload
// over real TCP sockets, and the per-host message counters maintained by
// the wire nodes must match the simulator's per-host counters
// bit-for-bit — along with every answer and hop count. Afterward, every
// daemon's key-set digest must agree, certifying the replicas never
// diverged. Those messages must also have arrived coalesced: every op of
// the workload emits at exactly one daemon, which sends each other host at
// most one counted frame.
func TestWireParity(t *testing.T) {
	for _, structure := range []string{"onedim", "blocked", "bucketed"} {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			cfg := Config{
				Hosts:     4,
				Structure: structure,
				Keys:      256,
				KeySeed:   42,
				Seed:      7,
			}
			wl := NewWorkload(cfg, 99, 400)

			simRes, err := RunSim(cfg, wl)
			if err != nil {
				t.Fatalf("RunSim: %v", err)
			}

			daemons, clients, err := BootLocal(cfg)
			if err != nil {
				t.Fatalf("BootLocal: %v", err)
			}
			defer CloseLocal(daemons, clients)

			wireRes, err := Replay(clients, wl)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}

			for i := range wl {
				if wireRes.Floors[i] != simRes.Floors[i] {
					t.Fatalf("op %d: wire %+v, sim %+v", i, wireRes.Floors[i], simRes.Floors[i])
				}
				if wireRes.Hops[i] != simRes.Hops[i] {
					t.Fatalf("op %d hops: wire %d, sim %d", i, wireRes.Hops[i], simRes.Hops[i])
				}
			}
			for h := range simRes.PerHost {
				if wireRes.PerHost[h] != simRes.PerHost[h] {
					t.Fatalf("host %d messages: wire %d, sim %d (full: wire %v, sim %v)",
						h, wireRes.PerHost[h], simRes.PerHost[h], wireRes.PerHost, simRes.PerHost)
				}
			}

			var frames int64
			for _, f := range wireRes.Frames {
				frames += f
			}
			if max := int64(cfg.Hosts-1) * int64(len(wl)); frames == 0 || frames > max {
				t.Fatalf("%d KMsg frames for %d ops on %d hosts, want 1..%d (per host: %v)",
					frames, len(wl), cfg.Hosts, max, wireRes.Frames)
			}

			digests, err := Digests(clients)
			if err != nil {
				t.Fatalf("Digests: %v", err)
			}
			for h := 1; h < len(digests); h++ {
				if digests[h] != digests[0] {
					t.Fatalf("replicas diverged: host %d digest %+v, host 0 %+v", h, digests[h], digests[0])
				}
			}
		})
	}
	t.Run("dropped-peer", testDroppedPeerParity)
}

// testDroppedPeerParity is the failure path of the parity invariant: host
// 1 dies mid-stream and the surviving origins keep serving floors. A floor
// that charged the dead host returns the delivery error, but its flush
// must not stop there — hosts 2 and 3 come after host 1 in flush order —
// so the survivors' counters still equal the simulator's for the whole
// stream.
func testDroppedPeerParity(t *testing.T) {
	const victim = sim.HostID(1)
	cfg := Config{Hosts: 4, Structure: "blocked", Keys: 256, KeySeed: 42, Seed: 7}
	all := NewWorkload(cfg, 99, 400)
	half := len(all) / 2
	wl := append([]WorkloadOp(nil), all[:half]...)
	for _, op := range all[half:] { // after the death: floors from surviving origins
		if op.Kind == OpQuery && op.Origin != victim {
			wl = append(wl, op)
		}
	}
	simRes, err := RunSim(cfg, wl)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}

	daemons, clients, err := BootLocal(cfg)
	if err != nil {
		t.Fatalf("BootLocal: %v", err)
	}
	defer func() { CloseLocal(daemons, clients) }()
	if _, err := Replay(clients, wl[:half]); err != nil {
		t.Fatalf("Replay before the death: %v", err)
	}
	clients[victim].Close()
	daemons[victim].Close()
	clients[victim], daemons[victim] = nil, nil

	failed := 0
	for i := half; i < len(wl); i++ {
		op := wl[i]
		var fr FloorReply
		err := clients[op.Origin].Call("floor", FloorArgs{Q: op.Key, Origin: int(op.Origin)}, &fr)
		switch {
		case err == nil:
			if fr != simRes.Floors[i] {
				t.Fatalf("op %d: wire %+v, sim %+v", i, fr, simRes.Floors[i])
			}
		case strings.Contains(err.Error(), "hop delivery failed"):
			failed++
		default:
			t.Fatalf("op %d: got %v, want the delivery error", i, err)
		}
	}
	if failed == 0 {
		t.Fatalf("none of %d floors charged the dead host — the case tested nothing", len(wl)-half)
	}
	for h, cl := range clients {
		if cl == nil {
			continue
		}
		var sr StatsReply
		if err := cl.Call("stats", nil, &sr); err != nil {
			t.Fatalf("stats host %d: %v", h, err)
		}
		if sr.Msgs != simRes.PerHost[h] {
			t.Fatalf("surviving host %d counted %d messages, the simulator charged %d", h, sr.Msgs, simRes.PerHost[h])
		}
	}
}

// restartHost brings host h — whose daemon and client the caller has
// closed — back on a fresh socket (from its WAL, when cfg has one),
// redials it and reconnects the whole cluster on the new address list.
func restartHost(t *testing.T, cfg Config, daemons []*Daemon, clients []*wire.Client, h sim.HostID) {
	t.Helper()
	cfg.Host, cfg.Listen = h, "127.0.0.1:0"
	d, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart host %d: %v", h, err)
	}
	daemons[h] = d
	addrs := make([]string, len(daemons))
	for i, d := range daemons {
		addrs[i] = d.Addr()
	}
	if clients[h], err = wire.Dial(h, addrs[h], 5*time.Second); err != nil {
		t.Fatalf("redial host %d: %v", h, err)
	}
	for i, cl := range clients {
		var ok bool
		if err := cl.Call("connect", ConnectArgs{Addrs: addrs}, &ok); err != nil {
			t.Fatalf("reconnect host %d: %v", i, err)
		}
	}
}

// TestFailedOpLeavesNoState pins run's per-op state: an op that fails for
// its own reason while a peer is down must not leave its delivery error —
// or any undelivered tally — behind for the next op. Duplicate inserts are
// such ops: the descent charges, then the insert is refused.
func TestFailedOpLeavesNoState(t *testing.T) {
	cfg := Config{Hosts: 4, Structure: "blocked", Keys: 256, KeySeed: 42, Seed: 7}
	daemons, clients, err := BootLocal(cfg)
	if err != nil {
		t.Fatalf("BootLocal: %v", err)
	}
	defer func() { CloseLocal(daemons, clients) }()

	clients[1].Close()
	daemons[1].Close()
	for _, k := range cfg.InitialKeys()[:16] {
		var ur UpdateReply
		err := clients[0].Call("update", UpdateArgs{Op: "insert", Key: k, Origin: 0, Emit: true}, &ur)
		if err == nil || !strings.Contains(err.Error(), "duplicate key") {
			t.Fatalf("duplicate insert of %d: got %v, want the op's own error", k, err)
		}
	}

	restartHost(t, cfg, daemons, clients, 1)
	for h, cl := range clients {
		if _, err := callReset(cl); err != nil {
			t.Fatalf("reset host %d: %v", h, err)
		}
	}

	var fr FloorReply
	if err := clients[0].Call("floor", FloorArgs{Q: 1 << 39, Origin: 0}, &fr); err != nil {
		t.Fatalf("floor after the failed ops and the reconnect: %v", err)
	}
	var msgs int64
	for h, cl := range clients {
		var sr StatsReply
		if err := cl.Call("stats", nil, &sr); err != nil {
			t.Fatalf("stats host %d: %v", h, err)
		}
		msgs += sr.Msgs
	}
	if msgs != int64(fr.Hops) {
		t.Fatalf("the floor charged %d messages, the daemons counted %d", fr.Hops, msgs)
	}
}

// TestWorkloadDeterministic pins the generator: the same cfg and seed
// must produce the same op list, or the parity diff is meaningless.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := Config{Hosts: 4, Structure: "blocked", Keys: 64, KeySeed: 1, Seed: 2}
	a := NewWorkload(cfg, 5, 200)
	b := NewWorkload(cfg, 5, 200)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	kinds := map[byte]int{}
	for _, op := range a {
		kinds[op.Kind]++
	}
	if kinds[OpQuery] == 0 || kinds[OpInsert] == 0 || kinds[OpDelete] == 0 {
		t.Fatalf("workload lacks an op kind: %v", kinds)
	}
}

// TestDaemonRejectsBadConfig covers the daemon's validation surface.
func TestDaemonRejectsBadConfig(t *testing.T) {
	if _, err := Start(Config{Hosts: 0, Structure: "blocked"}); err == nil {
		t.Fatal("Hosts=0 accepted")
	}
	if _, err := Start(Config{Hosts: 2, Host: 5, Structure: "blocked", Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	if _, err := Start(Config{Hosts: 2, Structure: "nope", Keys: 8, Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("unknown structure accepted")
	}
}

// TestShutdownRPC covers the daemon's remote drain trigger.
func TestShutdownRPC(t *testing.T) {
	d, err := Start(Config{Hosts: 1, Structure: "blocked", Keys: 16, KeySeed: 3, Seed: 4, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer d.Close()
	cl, err := wire.Dial(0, d.Addr(), time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	var ok bool
	if err := cl.Call("shutdown", nil, &ok); err != nil {
		t.Fatalf("shutdown RPC: %v", err)
	}
	select {
	case <-d.ShutdownRequested():
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown signal not delivered")
	}
}

// TestWALRecovery is the daemon-side durability acceptance: a durable
// 4-daemon cluster replays half a workload, host 1's daemon dies and is
// restarted from its WAL directory, the cluster reconnects, and the
// second half replays. The restarted replica must report the exact
// records it replayed, every digest must equal the workload oracle, and
// the per-host message counters summed across the two halves must still
// match a crash-free simulator run of the full workload bit for bit.
func TestWALRecovery(t *testing.T) {
	cfg := Config{
		Hosts:           4,
		Structure:       "blocked",
		Keys:            256,
		KeySeed:         42,
		Seed:            7,
		WALDir:          t.TempDir(),
		CheckpointEvery: 4,
	}
	wl := NewWorkload(cfg, 99, 400)
	half := len(wl) / 2
	simRes, err := RunSim(cfg, wl)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}

	daemons, clients, err := BootLocal(cfg)
	if err != nil {
		t.Fatalf("BootLocal: %v", err)
	}
	defer CloseLocal(daemons, clients)

	res1, err := Replay(clients, wl[:half])
	if err != nil {
		t.Fatalf("first half: %v", err)
	}
	updates := 0
	for _, op := range wl[:half] {
		if op.Kind != OpQuery {
			updates++
		}
	}

	// Host 1 dies. Every record was fsynced before its RPC acked, so
	// the close (or a kill) loses nothing acknowledged.
	daemons[1].Close()
	clients[1].Close()
	restartHost(t, cfg, daemons, clients, 1)
	if got := daemons[1].Recovered(); got != updates {
		t.Fatalf("restarted daemon replayed %d WAL records, want %d", got, updates)
	}

	res2, err := Replay(clients, wl[half:])
	if err != nil {
		t.Fatalf("second half: %v", err)
	}
	for i := range wl {
		var got FloorReply
		if i < half {
			got = res1.Floors[i]
		} else {
			got = res2.Floors[i-half]
		}
		if got != simRes.Floors[i] {
			t.Fatalf("op %d: wire %+v, sim %+v", i, got, simRes.Floors[i])
		}
	}
	for h := range simRes.PerHost {
		if got := res1.PerHost[h] + res2.PerHost[h]; got != simRes.PerHost[h] {
			t.Fatalf("host %d messages across restart: wire %d, sim %d", h, got, simRes.PerHost[h])
		}
	}
	want := ExpectedDigest(cfg, wl)
	digests, err := Digests(clients)
	if err != nil {
		t.Fatalf("Digests: %v", err)
	}
	for h, d := range digests {
		if d != want {
			t.Fatalf("host %d digest %+v, oracle %+v — recovery diverged", h, d, want)
		}
	}
}

// TestWALRecoveryVerification pins the failure modes: a daemon must
// refuse to start from a log it cannot replay exactly.
func TestWALRecoveryVerification(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Hosts: 2, Structure: "onedim", Keys: 64, KeySeed: 1, Seed: 2,
		Host: 0, Listen: "127.0.0.1:0", WALDir: dir, CheckpointEvery: 2,
	}
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Log three updates directly through the handler path.
	peerless := []string{d.Addr(), d.Addr()}
	if err := d.ConnectPeers(peerless, time.Second); err != nil {
		t.Fatal(err)
	}
	cl, err := wire.Dial(0, d.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []uint64{1 << 50, 1<<50 + 1, 1<<50 + 2} {
		var ur UpdateReply
		if err := cl.Call("update", UpdateArgs{Op: "insert", Key: k, Origin: 0}, &ur); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	cl.Close()
	d.Close()

	// Clean restart succeeds and replays all three.
	d2, err := Start(cfg)
	if err != nil {
		t.Fatalf("clean restart: %v", err)
	}
	if got := d2.Recovered(); got != 3 {
		t.Fatalf("recovered %d records, want 3", got)
	}
	d2.Close()

	// A log truncated below its checkpoint must be refused.
	walPath := dir + "/host-0.wal"
	if err := os.WriteFile(walPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(cfg); err == nil {
		t.Fatal("daemon started from a log truncated below its checkpoint")
	}

	// A corrupt record must be refused too.
	if err := os.WriteFile(walPath, []byte("i 5 0\nGARBAGE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(cfg); err == nil {
		t.Fatal("daemon started from a corrupt log")
	}

	// So must a fourth record that is not one whole line in append's
	// format with an origin in [0, Hosts), after three that replay
	// cleanly: torn, a stray field, an origin out of range either way, a
	// zero-padded origin, an empty line.
	var valid strings.Builder
	for _, k := range []uint64{1 << 50, 1<<50 + 1, 1<<50 + 2} {
		valid.WriteString(walRecord{Op: OpInsert, Key: k, Origin: 0}.line())
	}
	for _, bad := range []string{"i 5 1", "i 5 1 junk\n", "i 5 -7\n", "d 9 99999999\n", "i 5 01\n", "\n"} {
		if err := os.WriteFile(walPath, []byte(valid.String()+bad), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Start(cfg)
		if err == nil {
			d.Close()
			t.Fatalf("daemon started from a log ending in %q", bad)
		}
		if !strings.Contains(err.Error(), "wal record 3") {
			t.Fatalf("log ending in %q refused with %v, want an error naming record 3", bad, err)
		}
	}
}

// FuzzReadWAL checks the log parser on arbitrary bytes: it never panics,
// and every log it accepts is exactly its records' lines in append's
// format, with every origin in range.
func FuzzReadWAL(f *testing.F) {
	for _, seed := range []string{
		"", "i 5 0\n", "i 5 0\nd 5 3\n", "i 5 1", "i 5 1 junk\n", "i 5 -7\n",
		"d 9 99999999\n", "i 18446744073709551615 2\n", "i +5 0\n", "\n",
	} {
		f.Add([]byte(seed))
	}
	const hosts = 4
	f.Fuzz(func(t *testing.T, buf []byte) {
		recs, err := parseWAL(buf, hosts)
		if err != nil {
			return
		}
		var again strings.Builder
		for _, rec := range recs {
			if rec.Origin < 0 || rec.Origin >= hosts {
				t.Fatalf("accepted origin %d outside [0,%d)", rec.Origin, hosts)
			}
			again.WriteString(rec.line())
		}
		if again.String() != string(buf) {
			t.Fatalf("accepted %q, which re-serializes to %q", buf, again.String())
		}
	})
}

// TestRejectsOutOfRangeOrigin pins the RPC boundary: a floor or update
// whose origin names no host is refused with an error, and the daemon
// keeps serving.
func TestRejectsOutOfRangeOrigin(t *testing.T) {
	cfg := Config{Hosts: 2, Structure: "blocked", Keys: 64, KeySeed: 1, Seed: 2}
	daemons, clients, err := BootLocal(cfg)
	if err != nil {
		t.Fatalf("BootLocal: %v", err)
	}
	defer func() { CloseLocal(daemons, clients) }()
	for _, origin := range []int{1 << 20, 2, -1} {
		var fr FloorReply
		if err := clients[0].Call("floor", FloorArgs{Q: 1 << 39, Origin: origin}, &fr); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("floor from origin %d: got %v, want an out-of-range error", origin, err)
		}
		for _, emit := range []bool{true, false} {
			var ur UpdateReply
			err := clients[0].Call("update", UpdateArgs{Op: "insert", Key: 5, Origin: origin, Emit: emit}, &ur)
			if err == nil || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("update from origin %d (emit %v): got %v, want an out-of-range error", origin, emit, err)
			}
		}
	}
	var fr FloorReply
	if err := clients[0].Call("floor", FloorArgs{Q: 1 << 39, Origin: 1}, &fr); err != nil {
		t.Fatalf("floor after the refused calls: %v", err)
	}
}
