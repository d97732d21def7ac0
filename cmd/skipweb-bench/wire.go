package main

import (
	"encoding/json"
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
// serveBin, the daemons are real skipweb-serve processes on loopback
// ports basePort..basePort+hosts-1; otherwise they are in-process
// listeners (same sockets, same frames, one address space).
//
// With restart, the run is the durability smoke: the daemons get
// per-host WALs, one daemon's process is SIGKILLed halfway through the
// workload and restarted with the same flags, and the parity bar stays
// exactly as high — every answer, every digest, and the per-host counts
// summed across the two halves must match the crash-free simulator run
// bit for bit (recovery replays the WAL without emitting, so a restart
// is accounting-invisible).
func runWire(out io.Writer, jsonPath, serveBin string, basePort, hosts, keyN, ops int, seed uint64, restart bool) error {
	if hosts < 2 {
		return fmt.Errorf("-hosts must be >= 2 for wire mode, got %d", hosts)
	}
	if keyN < 16 {
		return fmt.Errorf("-keys must be >= 16 for wire mode, got %d", keyN)
	}
	if ops < 1 {
		return fmt.Errorf("-queries must be positive, got %d", ops)
	}
	if restart && serveBin == "" {
		return fmt.Errorf("-restart needs -serve-bin: the smoke kills and restarts a real daemon process")
	}
	doc := wireDoc{
		Mode: "wire", Hosts: hosts, Keys: keyN, Ops: ops, Seed: seed,
		Processes: serveBin != "", Restart: restart, Go: runtime.Version(), CPUs: runtime.NumCPU(),
	}
	label := map[bool]string{true: "multi-process", false: "in-process listeners"}[serveBin != ""]
	if restart {
		label += ", SIGKILL+restart mid-workload"
	}
	fmt.Fprintf(out, "=== W1: sim-vs-wire parity (hosts=%d keys=%d ops=%d, %s) ===\n",
		hosts, keyN, ops, label)
	fmt.Fprintf(out, "%-10s %12s %12s %12s %10s %10s %12s %12s\n",
		"structure", "sim msgs", "wire msgs", "wire frames", "identical", "msgs/op", "p50 µs", "p99 µs")
	for _, structure := range []string{"onedim", "blocked", "bucketed"} {
		cfg := serve.Config{
			Hosts:     hosts,
			Structure: structure,
			Keys:      keyN,
			KeySeed:   seed,
			Seed:      seed + 1,
		}
		if restart {
			dir, err := os.MkdirTemp("", "skipweb-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			cfg.WALDir = dir
			cfg.CheckpointEvery = 8
		}
		wl := serve.NewWorkload(cfg, seed+2, ops)
		simRes, err := serve.RunSim(cfg, wl)
		if err != nil {
			return fmt.Errorf("%s: sim control: %w", structure, err)
		}
		var wireRes serve.RunResult
		recovered := 0
		if restart {
			wireRes, recovered, err = replayProcessesRestart(serveBin, basePort, cfg, wl, 1)
			if err != nil {
				return fmt.Errorf("%s: restart smoke: %w", structure, err)
			}
		} else if serveBin == "" {
			daemons, clients, err := serve.BootLocal(cfg)
			if err != nil {
				return fmt.Errorf("%s: boot: %w", structure, err)
			}
			wireRes, err = serve.Replay(clients, wl)
			serve.CloseLocal(daemons, clients)
			if err != nil {
				return fmt.Errorf("%s: replay: %w", structure, err)
			}
		} else {
			wireRes, err = replayProcesses(serveBin, basePort, cfg, wl)
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
		if restart {
			row.Killed, row.Recovered = 1, recovered
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "%-10s %12d %12d %12d %10v %10.2f %12.0f %12.0f\n",
			row.Structure, row.SimMsgs, row.WireMsgs, row.WireFrames, row.Identical, row.MsgsOp, row.P50Micros, row.P99Micros)
		if restart {
			fmt.Fprintf(out, "%-10s   killed host %d mid-workload; restarted daemon replayed %d WAL records\n",
				"", row.Killed, row.Recovered)
		}
		if !row.Identical {
			return fmt.Errorf("%s: wire accounting diverged from sim (sim %v, wire %v)",
				structure, simRes.PerHost, wireRes.PerHost)
		}
	}
	if restart {
		fmt.Fprintln(out, "restart smoke passed: answers, digests, and summed per-host counters all match the crash-free simulator")
	} else {
		fmt.Fprintln(out, "per-host wire message counters are bit-identical to the simulator's")
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	return nil
}

// replayProcesses boots cfg.Hosts real skipweb-serve processes on
// loopback ports, cross-connects them via the connect RPC, replays the
// workload, and drains each daemon through its shutdown RPC (the same
// graceful path SIGTERM takes) before waiting on the processes.
func replayProcesses(serveBin string, basePort int, cfg serve.Config, wl []serve.WorkloadOp) (serve.RunResult, error) {
	hosts := cfg.Hosts
	addrs := make([]string, hosts)
	procs := make([]*exec.Cmd, hosts)
	clients := make([]*wire.Client, hosts)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Signal(syscall.SIGTERM)
				p.Wait()
			}
		}
	}()
	for h := 0; h < hosts; h++ {
		addrs[h] = fmt.Sprintf("127.0.0.1:%d", basePort+h)
		cmd := serveCommand(serveBin, addrs[h], h, cfg)
		if err := cmd.Start(); err != nil {
			return serve.RunResult{}, fmt.Errorf("start host %d: %w", h, err)
		}
		procs[h] = cmd
	}
	for h := 0; h < hosts; h++ {
		cl, err := wire.Dial(sim.HostID(h), addrs[h], 30*time.Second)
		if err != nil {
			return serve.RunResult{}, fmt.Errorf("dial host %d: %w", h, err)
		}
		clients[h] = cl
		var ok bool
		if err := cl.Call("connect", serve.ConnectArgs{Addrs: addrs}, &ok); err != nil {
			return serve.RunResult{}, fmt.Errorf("connect host %d: %w", h, err)
		}
	}
	res, err := serve.Replay(clients, wl)
	if err != nil {
		return serve.RunResult{}, err
	}
	for h, cl := range clients {
		var ok bool
		if err := cl.Call("shutdown", nil, &ok); err != nil {
			return serve.RunResult{}, fmt.Errorf("shutdown host %d: %w", h, err)
		}
	}
	for h, p := range procs {
		if err := p.Wait(); err != nil {
			return serve.RunResult{}, fmt.Errorf("host %d exited uncleanly: %w", h, err)
		}
		procs[h] = nil
	}
	return res, nil
}

// serveCommand builds the skipweb-serve invocation for host h — kept in
// one place so a restarted daemon runs the byte-identical command line
// (same seeds, same -wal-dir) its predecessor did.
func serveCommand(serveBin, addr string, h int, cfg serve.Config) *exec.Cmd {
	args := []string{
		"-listen", addr,
		"-host", fmt.Sprint(h),
		"-hosts", fmt.Sprint(cfg.Hosts),
		"-structure", cfg.Structure,
		"-keys", fmt.Sprint(cfg.Keys),
		"-key-seed", fmt.Sprint(cfg.KeySeed),
		"-seed", fmt.Sprint(cfg.Seed),
	}
	if cfg.WALDir != "" {
		args = append(args, "-wal-dir", cfg.WALDir,
			"-checkpoint-every", fmt.Sprint(cfg.CheckpointEvery))
	}
	cmd := exec.Command(serveBin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd
}

// replayProcessesRestart is the process-level durability smoke: a
// durable daemon cluster replays the first half of wl, host victim's
// process is SIGKILLed (no drain, no flush beyond the per-record
// fsyncs), an identical process is started on the same port and WAL
// directory, the cluster re-issues the connect RPC, and the second half
// replays. It returns the combined RunResult (answers concatenated,
// per-host counters summed across the halves) plus the WAL records the
// restarted daemon reported replaying, and fails unless every daemon's
// final digest equals the workload oracle.
func replayProcessesRestart(serveBin string, basePort int, cfg serve.Config, wl []serve.WorkloadOp, victim int) (serve.RunResult, int, error) {
	hosts := cfg.Hosts
	half := len(wl) / 2
	addrs := make([]string, hosts)
	procs := make([]*exec.Cmd, hosts)
	clients := make([]*wire.Client, hosts)
	fail := func(err error) (serve.RunResult, int, error) { return serve.RunResult{}, 0, err }
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Signal(syscall.SIGTERM)
				p.Wait()
			}
		}
	}()
	for h := 0; h < hosts; h++ {
		addrs[h] = fmt.Sprintf("127.0.0.1:%d", basePort+h)
		cmd := serveCommand(serveBin, addrs[h], h, cfg)
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("start host %d: %w", h, err))
		}
		procs[h] = cmd
	}
	connectAll := func() error {
		for h, cl := range clients {
			var ok bool
			if err := cl.Call("connect", serve.ConnectArgs{Addrs: addrs}, &ok); err != nil {
				return fmt.Errorf("connect host %d: %w", h, err)
			}
		}
		return nil
	}
	for h := 0; h < hosts; h++ {
		cl, err := wire.Dial(sim.HostID(h), addrs[h], 30*time.Second)
		if err != nil {
			return fail(fmt.Errorf("dial host %d: %w", h, err))
		}
		clients[h] = cl
	}
	if err := connectAll(); err != nil {
		return fail(err)
	}

	res1, err := serve.Replay(clients, wl[:half])
	if err != nil {
		return fail(fmt.Errorf("first half: %w", err))
	}

	// The kill: no signal handler runs, no drain happens. Everything the
	// replay saw acked was fsynced first, so nothing acknowledged is lost.
	procs[victim].Process.Kill()
	procs[victim].Wait() // reaps; a SIGKILL exit is expected to be unclean
	procs[victim] = nil
	clients[victim].Close()
	clients[victim] = nil

	cmd := serveCommand(serveBin, addrs[victim], victim, cfg)
	if err := cmd.Start(); err != nil {
		return fail(fmt.Errorf("restart host %d: %w", victim, err))
	}
	procs[victim] = cmd
	cl, err := wire.Dial(sim.HostID(victim), addrs[victim], 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("redial host %d: %w", victim, err))
	}
	clients[victim] = cl
	var pr serve.PingReply
	if err := cl.Call("ping", nil, &pr); err != nil {
		return fail(fmt.Errorf("ping restarted host %d: %w", victim, err))
	}
	if err := connectAll(); err != nil {
		return fail(fmt.Errorf("reconnect after restart: %w", err))
	}

	res2, err := serve.Replay(clients, wl[half:])
	if err != nil {
		return fail(fmt.Errorf("second half: %w", err))
	}

	want := serve.ExpectedDigest(cfg, wl)
	digests, err := serve.Digests(clients)
	if err != nil {
		return fail(err)
	}
	for h, d := range digests {
		if d != want {
			return fail(fmt.Errorf("host %d digest %+v differs from oracle %+v: recovery diverged", h, d, want))
		}
	}

	res := serve.RunResult{
		PerHost:      make([]int64, hosts),
		Frames:       make([]int64, hosts),
		Floors:       append(res1.Floors, res2.Floors...),
		Hops:         append(res1.Hops, res2.Hops...),
		QueryLatency: append(res1.QueryLatency, res2.QueryLatency...),
	}
	for h := range res.PerHost {
		res.PerHost[h] = res1.PerHost[h] + res2.PerHost[h]
		res.Frames[h] = res1.Frames[h] + res2.Frames[h]
	}
	for h, cl := range clients {
		var ok bool
		if err := cl.Call("shutdown", nil, &ok); err != nil {
			return fail(fmt.Errorf("shutdown host %d: %w", h, err))
		}
	}
	for h, p := range procs {
		if err := p.Wait(); err != nil {
			return fail(fmt.Errorf("host %d exited uncleanly: %w", h, err))
		}
		procs[h] = nil
	}
	return res, pr.Recovered, nil
}
