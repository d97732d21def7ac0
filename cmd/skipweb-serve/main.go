// Command skipweb-serve runs one skip-web host as a network daemon: it
// builds a deterministic replica of the configured structure from the
// seed flags, listens for wire-protocol frames (named RPCs plus counted
// KMsg charges), and serves until a SIGINT/SIGTERM or a shutdown RPC, then
// drains gracefully — queued requests finish before the listener closes.
//
// A 4-process cluster on one machine:
//
//	skipweb-serve -listen 127.0.0.1:7070 -host 0 -hosts 4 &
//	skipweb-serve -listen 127.0.0.1:7071 -host 1 -hosts 4 &
//	skipweb-serve -listen 127.0.0.1:7072 -host 2 -hosts 4 &
//	skipweb-serve -listen 127.0.0.1:7073 -host 3 -hosts 4 &
//
// then either pass every daemon the same -peers list, or have a client
// (skipweb-bench -mode=wire -serve-addrs ...) issue the connect RPC with
// the full address list. All daemons must share -hosts, -structure,
// -keys, -key-seed, -seed, and -replicas: each rebuilds the same replica
// from those seeds, which is what lets any daemon serve any origin.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/skipwebs/skipwebs/internal/serve"
	"github.com/skipwebs/skipwebs/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skipweb-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("skipweb-serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on")
	host := fs.Int("host", 0, "this daemon's host id (0-based)")
	hosts := fs.Int("hosts", 4, "total hosts in the cluster")
	peers := fs.String("peers", "", "comma-separated peer addresses indexed by host id (optional; the connect RPC can supply them instead)")
	structure := fs.String("structure", "blocked", "structure to serve: onedim, blocked, or bucketed")
	keys := fs.Int("keys", 1024, "initial key count")
	keySeed := fs.Uint64("key-seed", 42, "seed for the initial key set")
	seed := fs.Uint64("seed", 7, "structural seed")
	replicas := fs.Int("replicas", 0, "replication factor (<= 1 unreplicated)")
	target := fs.Int("target", 0, "bucketed: keys per bucket (0 = default)")
	walDir := fs.String("wal-dir", "", "directory for the per-host WAL + checkpoint; empty disables durability (a restarted daemon then rebuilds only the seeded keys)")
	ckptEvery := fs.Int("checkpoint-every", 0, "verification-checkpoint cadence in WAL records (0 = default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *hosts < 1 {
		return fmt.Errorf("-hosts must be at least 1, got %d", *hosts)
	}
	if *host < 0 || *host >= *hosts {
		return fmt.Errorf("-host must be in [0,%d), got %d", *hosts, *host)
	}
	if *keys < 1 {
		return fmt.Errorf("-keys must be at least 1, got %d", *keys)
	}

	d, err := serve.Start(serve.Config{
		Host:      sim.HostID(*host),
		Hosts:     *hosts,
		Listen:    *listen,
		Structure: *structure,
		Keys:      *keys,
		KeySeed:   *keySeed,
		Seed:      *seed,
		Replicas:  *replicas,
		Target:    *target,
		WALDir:    *walDir,

		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Fprintf(out, "skipweb-serve: host %d/%d serving %s (%d keys) on %s\n",
		*host, *hosts, *structure, *keys, d.Addr())
	if *walDir != "" {
		fmt.Fprintf(out, "skipweb-serve: durable in %s (replayed %d WAL records)\n", *walDir, d.Recovered())
	}

	if *peers != "" {
		addrs := strings.Split(*peers, ",")
		if err := d.ConnectPeers(addrs, 30*time.Second); err != nil {
			return fmt.Errorf("connect peers: %w", err)
		}
		fmt.Fprintf(out, "skipweb-serve: connected to %d peers\n", len(addrs))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(out, "skipweb-serve: %v, draining\n", s)
	case <-d.ShutdownRequested():
		fmt.Fprintln(out, "skipweb-serve: shutdown RPC, draining")
	}
	// The deferred Close drains the mailbox (queued RPCs finish) before
	// the listener and peer connections go away.
	return nil
}
