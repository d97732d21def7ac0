package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"github.com/skipwebs/skipwebs/internal/serve"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
)

// wireRow is one structure's sim-vs-wire parity measurement.
type wireRow struct {
	Structure   string  `json:"structure"`
	Ops         int     `json:"ops"`
	Queries     int     `json:"queries"`
	SimMsgs     int64   `json:"sim_msgs_total"`
	WireMsgs    int64   `json:"wire_msgs_total"`
	WireFrames  int64   `json:"wire_frames_total"` // KMsg frames those messages arrived in
	Identical   bool    `json:"per_host_identical"`
	SimPerHost  []int64 `json:"sim_per_host"`
	WirePerHost []int64 `json:"wire_per_host"`
	MsgsOp      float64 `json:"msgs_per_op"`
	P50Micros   float64 `json:"latency_p50_us"`
	P99Micros   float64 `json:"latency_p99_us"`

	// Restart-smoke fields (-restart): the host whose process was
	// SIGKILLed mid-workload and the WAL records its replacement
	// replayed before rejoining.
	Killed    int `json:"killed_host,omitempty"`
	Recovered int `json:"recovered_records,omitempty"`
}

// wireDoc is the JSON document written by -mode=wire -json
// (BENCH_WIRE_PR6.json): the W1 table's data.
type wireDoc struct {
	Mode      string    `json:"mode"`
	Hosts     int       `json:"hosts"`
	Keys      int       `json:"keys"`
	Ops       int       `json:"ops"`
	Seed      uint64    `json:"seed"`
	Processes bool      `json:"multi_process"`
	Restart   bool      `json:"restart,omitempty"`
	Go        string    `json:"go"`
	CPUs      int       `json:"cpus"`
	Rows      []wireRow `json:"rows"`
}

// runWire replays a seeded workload against a daemon cluster speaking
// the real TCP wire protocol and diffs the per-host message counters
// against a single-process simulator run of the identical workload. The
// counts must be bit-identical (the model charges are transport-
// invariant); any divergence is an error, not a report footnote. With
// -serve-bin, the daemons are real skipweb-serve processes on loopback
// ports -base-port..-base-port+hosts-1; otherwise they are in-process
// listeners (same sockets, same frames, one address space).
//
// With -restart, the run is the durability smoke: the daemons get
// per-host WALs, one daemon's process is SIGKILLed halfway through the
// workload and restarted with the same flags, and the parity bar stays
// exactly as high — every answer, every digest, and the per-host counts
// summed across the two halves must match the crash-free simulator run
// bit for bit (recovery replays the WAL without emitting, so a restart
// is accounting-invisible).
func runWire(out io.Writer, cfg *config) error {
	if cfg.restart && cfg.serveBin == "" {
		return fmt.Errorf("-restart needs -serve-bin: the smoke kills and restarts a real daemon process")
	}
	doc := wireDoc{
		Mode: "wire", Hosts: cfg.hosts, Keys: cfg.keys, Ops: cfg.queries, Seed: cfg.seed,
		Processes: cfg.serveBin != "", Restart: cfg.restart, Go: runtime.Version(), CPUs: runtime.NumCPU(),
	}
	label := map[bool]string{true: "multi-process", false: "in-process listeners"}[cfg.serveBin != ""]
	if cfg.restart {
		label += ", SIGKILL+restart mid-workload"
	}
	fmt.Fprintf(out, "=== W1: sim-vs-wire parity (hosts=%d keys=%d ops=%d, %s) ===\n",
		cfg.hosts, cfg.keys, cfg.queries, label)
	fmt.Fprintf(out, "%-10s %12s %12s %12s %10s %10s %12s %12s\n",
		"structure", "sim msgs", "wire msgs", "wire frames", "identical", "msgs/op", "p50 µs", "p99 µs")
	for _, st := range sortedSets {
		structure := st.name
		scfg := serve.Config{
			Hosts:     cfg.hosts,
			Structure: structure,
			Keys:      cfg.keys,
			KeySeed:   cfg.seed,
			Seed:      cfg.seed + 1,
		}
		wl := serve.NewWorkload(scfg, cfg.seed+2, cfg.queries)
		simRes, err := serve.RunSim(scfg, wl)
		if err != nil {
			return fmt.Errorf("%s: sim control: %w", structure, err)
		}
		var wireRes serve.RunResult
		recovered := 0
		if cfg.restart {
			wireRes, recovered, err = replayProcessesRestart(cfg.serveBin, cfg.basePort, scfg, wl, 1)
			if err != nil {
				return fmt.Errorf("%s: restart smoke: %w", structure, err)
			}
		} else if cfg.serveBin == "" {
			daemons, clients, err := serve.BootLocal(scfg)
			if err != nil {
				return fmt.Errorf("%s: boot: %w", structure, err)
			}
			wireRes, err = serve.Replay(clients, wl)
			serve.CloseLocal(daemons, clients)
			if err != nil {
				return fmt.Errorf("%s: replay: %w", structure, err)
			}
		} else {
			wireRes, err = replayProcesses(cfg.serveBin, cfg.basePort, scfg, wl)
			if err != nil {
				return fmt.Errorf("%s: replay (processes): %w", structure, err)
			}
		}

		row := wireRow{
			Structure:   structure,
			Ops:         len(wl),
			Queries:     len(wireRes.QueryLatency),
			SimPerHost:  simRes.PerHost,
			WirePerHost: wireRes.PerHost,
			Identical:   true,
		}
		for h := range simRes.PerHost {
			row.SimMsgs += simRes.PerHost[h]
			row.WireMsgs += wireRes.PerHost[h]
			row.WireFrames += wireRes.Frames[h]
			if simRes.PerHost[h] != wireRes.PerHost[h] {
				row.Identical = false
			}
		}
		for i := range wl {
			if wireRes.Floors[i] != simRes.Floors[i] || wireRes.Hops[i] != simRes.Hops[i] {
				row.Identical = false
			}
		}
		row.MsgsOp = float64(row.WireMsgs) / float64(len(wl))
		row.P50Micros = float64(serve.Quantile(wireRes.QueryLatency, 0.50).Microseconds())
		row.P99Micros = float64(serve.Quantile(wireRes.QueryLatency, 0.99).Microseconds())
		if cfg.restart {
			row.Killed, row.Recovered = 1, recovered
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "%-10s %12d %12d %12d %10v %10.2f %12.0f %12.0f\n",
			row.Structure, row.SimMsgs, row.WireMsgs, row.WireFrames, row.Identical, row.MsgsOp, row.P50Micros, row.P99Micros)
		if cfg.restart {
			fmt.Fprintf(out, "%-10s   killed host %d mid-workload; restarted daemon replayed %d WAL records\n",
				"", row.Killed, row.Recovered)
		}
		if !row.Identical {
			return fmt.Errorf("%s: wire accounting diverged from sim (sim %v, wire %v)",
				structure, simRes.PerHost, wireRes.PerHost)
		}
	}
	if cfg.restart {
		fmt.Fprintln(out, "restart smoke passed: answers, digests, and summed per-host counters all match the crash-free simulator")
	} else {
		fmt.Fprintln(out, "per-host wire message counters are bit-identical to the simulator's")
	}
	return writeJSON(out, cfg.json, doc)
}

// procCluster is a cluster of real skipweb-serve processes on loopback
// ports, each with a dialed client, all cross-connected. A durable one
// owns the WAL directory its daemons share.
type procCluster struct {
	bin     string
	cfg     serve.Config
	addrs   []string
	procs   []*exec.Cmd
	clients []*wire.Client
}

// bootProcs starts cfg.Hosts daemons on basePort.., dials each and
// cross-connects them via the connect RPC. The caller must close the
// cluster, which also reaps whatever a failed boot left running.
func bootProcs(bin string, basePort int, cfg serve.Config, durable bool) (*procCluster, error) {
	p := &procCluster{
		bin: bin, cfg: cfg,
		addrs:   make([]string, cfg.Hosts),
		procs:   make([]*exec.Cmd, cfg.Hosts),
		clients: make([]*wire.Client, cfg.Hosts),
	}
	if durable {
		dir, err := os.MkdirTemp("", "skipweb-wal-")
		if err != nil {
			return p, err
		}
		p.cfg.WALDir, p.cfg.CheckpointEvery = dir, 8
	}
	for h := range p.addrs {
		p.addrs[h] = fmt.Sprintf("127.0.0.1:%d", basePort+h)
		if err := p.start(h); err != nil {
			return p, err
		}
	}
	for h := range p.addrs {
		if err := p.dial(h); err != nil {
			return p, err
		}
	}
	return p, p.connectAll()
}

// start launches host h's daemon. The command line is a pure function of
// (h, cfg), so a restarted daemon runs the byte-identical invocation
// (same seeds, same -wal-dir) its predecessor did.
func (p *procCluster) start(h int) error {
	args := []string{
		"-listen", p.addrs[h],
		"-host", fmt.Sprint(h),
		"-hosts", fmt.Sprint(p.cfg.Hosts),
		"-structure", p.cfg.Structure,
		"-keys", fmt.Sprint(p.cfg.Keys),
		"-key-seed", fmt.Sprint(p.cfg.KeySeed),
		"-seed", fmt.Sprint(p.cfg.Seed),
	}
	if p.cfg.WALDir != "" {
		args = append(args, "-wal-dir", p.cfg.WALDir,
			"-checkpoint-every", fmt.Sprint(p.cfg.CheckpointEvery))
	}
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start host %d: %w", h, err)
	}
	p.procs[h] = cmd
	return nil
}

func (p *procCluster) dial(h int) error {
	cl, err := wire.Dial(sim.HostID(h), p.addrs[h], 30*time.Second)
	if err != nil {
		return fmt.Errorf("dial host %d: %w", h, err)
	}
	p.clients[h] = cl
	return nil
}

func (p *procCluster) connectAll() error {
	for h, cl := range p.clients {
		var ok bool
		if err := cl.Call("connect", serve.ConnectArgs{Addrs: p.addrs}, &ok); err != nil {
			return fmt.Errorf("connect host %d: %w", h, err)
		}
	}
	return nil
}

// restart SIGKILLs host h — no signal handler runs, no drain happens;
// everything a replay saw acked was fsynced first, so nothing
// acknowledged is lost — then starts an identical process on the same
// port and WAL directory, waits for it to answer, and re-issues the
// connect RPC cluster-wide. It returns the WAL records the new daemon
// reported replaying.
func (p *procCluster) restart(h int) (int, error) {
	p.procs[h].Process.Kill()
	p.procs[h].Wait() // reaps; a SIGKILL exit is expected to be unclean
	p.procs[h] = nil
	p.clients[h].Close()
	p.clients[h] = nil
	if err := p.start(h); err != nil {
		return 0, err
	}
	if err := p.dial(h); err != nil {
		return 0, err
	}
	var pr serve.PingReply
	if err := p.clients[h].Call("ping", nil, &pr); err != nil {
		return 0, fmt.Errorf("ping restarted host %d: %w", h, err)
	}
	return pr.Recovered, p.connectAll()
}

// shutdown drains each daemon through its shutdown RPC (the same
// graceful path SIGTERM takes) and waits for every process to exit
// cleanly.
func (p *procCluster) shutdown() error {
	for h, cl := range p.clients {
		var ok bool
		if err := cl.Call("shutdown", nil, &ok); err != nil {
			return fmt.Errorf("shutdown host %d: %w", h, err)
		}
	}
	for h, cmd := range p.procs {
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("host %d exited uncleanly: %w", h, err)
		}
		p.procs[h] = nil
	}
	return nil
}

// close releases everything the cluster still holds: clients, processes
// a shutdown did not reap, the WAL directory.
func (p *procCluster) close() {
	for _, cl := range p.clients {
		if cl != nil {
			cl.Close()
		}
	}
	for _, cmd := range p.procs {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Signal(syscall.SIGTERM)
			cmd.Wait()
		}
	}
	if p.cfg.WALDir != "" {
		os.RemoveAll(p.cfg.WALDir)
	}
}

// replayProcesses replays the workload over real processes and shuts
// them down gracefully.
func replayProcesses(bin string, basePort int, cfg serve.Config, wl []serve.WorkloadOp) (serve.RunResult, error) {
	p, err := bootProcs(bin, basePort, cfg, false)
	defer p.close()
	if err != nil {
		return serve.RunResult{}, err
	}
	res, err := serve.Replay(p.clients, wl)
	if err != nil {
		return serve.RunResult{}, err
	}
	return res, p.shutdown()
}

// replayProcessesRestart is the process-level durability smoke: a
// durable daemon cluster replays the first half of wl, host victim is
// killed and restarted, and the second half replays. It returns the
// combined RunResult (answers concatenated, per-host counters summed
// across the halves) plus the WAL records the restarted daemon reported
// replaying, and fails unless every daemon's final digest equals the
// workload oracle.
func replayProcessesRestart(bin string, basePort int, cfg serve.Config, wl []serve.WorkloadOp, victim int) (serve.RunResult, int, error) {
	fail := func(err error) (serve.RunResult, int, error) { return serve.RunResult{}, 0, err }
	p, err := bootProcs(bin, basePort, cfg, true)
	defer p.close()
	if err != nil {
		return fail(err)
	}
	half := len(wl) / 2
	res1, err := serve.Replay(p.clients, wl[:half])
	if err != nil {
		return fail(fmt.Errorf("first half: %w", err))
	}
	recovered, err := p.restart(victim)
	if err != nil {
		return fail(fmt.Errorf("restart host %d: %w", victim, err))
	}
	res2, err := serve.Replay(p.clients, wl[half:])
	if err != nil {
		return fail(fmt.Errorf("second half: %w", err))
	}

	want := serve.ExpectedDigest(cfg, wl)
	digests, err := serve.Digests(p.clients)
	if err != nil {
		return fail(err)
	}
	for h, d := range digests {
		if d != want {
			return fail(fmt.Errorf("host %d digest %+v differs from oracle %+v: recovery diverged", h, d, want))
		}
	}

	res := serve.RunResult{
		PerHost:      make([]int64, cfg.Hosts),
		Frames:       make([]int64, cfg.Hosts),
		Floors:       append(res1.Floors, res2.Floors...),
		Hops:         append(res1.Hops, res2.Hops...),
		QueryLatency: append(res1.QueryLatency, res2.QueryLatency...),
	}
	for h := range res.PerHost {
		res.PerHost[h] = res1.PerHost[h] + res2.PerHost[h]
		res.Frames[h] = res1.Frames[h] + res2.Frames[h]
	}
	return res, recovered, p.shutdown()
}
