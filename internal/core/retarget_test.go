package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// unitHosts lists the hosts of every unit each visits, slot order.
func unitHosts[U interface{ replicas() replicaSet }](each func(visit func(U))) [][]sim.HostID {
	var out [][]sim.HostID
	each(func(u U) {
		rs := u.replicas()
		hosts := make([]sim.HostID, rs.count())
		for slot := range hosts {
			hosts[slot] = rs.at(slot)
		}
		out = append(out, hosts)
	})
	return out
}

// movedHosts returns the hosts some unit gained or lost between two
// unitHosts snapshots of one engine: a migration's two ends.
func movedHosts(before, after [][]sim.HostID) map[sim.HostID]bool {
	moved := map[sim.HostID]bool{}
	for i := range before {
		for _, h := range before[i] {
			if !slices.Contains(after[i], h) {
				moved[h] = true
			}
		}
		for _, h := range after[i] {
			if !slices.Contains(before[i], h) {
				moved[h] = true
			}
		}
	}
	return moved
}

// TestChurnChargesOnlyMovedHosts pins what a migration costs on a
// durable fabric: each storage write appends a charged WAL record at its
// host, and Rehome and Rebalance must write storage only at the hosts a
// replica moved from or to. Every engine runs the replica golden's build
// and updates twice from one seed, once durable and once not, then
// leaves and joins on both. The twins differ only by WAL charges, so a
// host whose message count diverges between them took a storage write,
// and it must be one end of a move. A discharge-and-recharge of
// unmoved replicas nets zero storage but still bills both appends. The
// cluster has 64 hosts, so a pass's moves touch few of them.
func TestChurnChargesOnlyMovedHosts(t *testing.T) {
	for _, engine := range []string{"web", "blocked", "bucket"} {
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("%s/k%d", engine, k), func(t *testing.T) {
				var twins [2]*goldenRun
				for i, durable := range []bool{false, true} {
					twins[i] = newGoldenRun(t, &transcript{}, engine, 64, 600, k, durable, 1000+uint64(k))
					twins[i].updates(90, true)
				}
				plain, durable := twins[0], twins[1]
				for step, churn := range []func(g *goldenRun){
					func(g *goldenRun) { g.leave(3) },
					func(g *goldenRun) { g.leave(7) },
					func(g *goldenRun) { g.join() },
					func(g *goldenRun) { g.join() },
				} {
					units := plain.e.units()
					var before [2][]int64
					for i, g := range twins {
						before[i] = hostMessages(g.net)
						churn(g)
					}
					after := plain.e.units()
					moved := movedHosts(units, after)
					if len(moved) == 0 {
						t.Fatalf("step %d moved no replica", step)
					}
					if !slices.EqualFunc(after, durable.e.units(), slices.Equal[[]sim.HostID]) {
						t.Fatalf("step %d: the durable twin placed replicas differently", step)
					}
					afterPlain, afterDurable := hostMessages(plain.net), hostMessages(durable.net)
					for h := range afterPlain {
						wal := charged(before[1], afterDurable, h) - charged(before[0], afterPlain, h)
						if wal != 0 && !moved[sim.HostID(h)] {
							t.Errorf("step %d: host %d, which no replica moved from or to, was charged %d WAL messages", step, h, wal)
						}
					}
				}
			})
		}
	}
}

// charged is host h's message count between two hostMessages reads; a
// host that joined in between had none before.
func charged(before, after []int64, h int) int64 {
	if h < len(before) {
		return after[h] - before[h]
	}
	return after[h]
}

// hostMessages reads every host's message counter.
func hostMessages(net *sim.Network) []int64 {
	out := make([]int64, net.Hosts())
	for h := range out {
		out[h] = net.Messages(sim.HostID(h))
	}
	return out
}
