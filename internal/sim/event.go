// The event-driven scenario kernel. runLockstep ticks every core every
// cycle, so cost scales with cycles × cores even when most cores are
// stalled on L1-I/LLC fills — the common case the paper studies. This
// kernel advances a shared clock straight to the next pending event and
// ticks only the cores that are active in that cycle, which is what
// makes 64–256-core interference sweeps tractable. Every exact
// simulation runs here, the single-core Run and RunStream included.
//
// Bit-identity with the lockstep engine is the design invariant, not an
// approximation target:
//
//   - Activity: core.NextEvent returns the earliest cycle at which the
//     core's Tick does anything beyond idle accounting. The kernel keeps
//     one cached deadline per core and only ever ticks a core at exactly
//     that cycle, so every skipped cycle is provably idle.
//   - Idle accounting: an idle Tick mutates nothing but the stall
//     counters, Cycles and the clock, and touches no shared state
//     (PollArrivals early-returns on the next-arrival watermark, the
//     mesh fluid queue integrates lazily inside Traverse, the caches
//     are time-free). core.AdvanceIdle bulk-applies exactly that, so a
//     core catching up over a skipped span lands in the same state a
//     cycle-by-cycle execution would reach.
//   - Interleaving: within an event cycle, active cores tick in the
//     same canonical index order the lockstep loop uses, so the shared
//     LLC and mesh observe the identical (cycle, core) call sequence.
//   - Isolation of deadlines: one core's activity can change another's
//     *future* latencies (LLC eviction, mesh backlog) but never an
//     already-pending deadline — those are fixed timestamps (fill
//     completion, stall expiry, ROB head completion) — so cached
//     deadlines of idle cores stay valid between their ticks.
//
// TestEventKernelMatchesLockstep holds the two engines bit-equal across
// core counts and all mechanisms, and the golden corpus pins the
// results at scale.

package sim

// runEvent runs built scenario states to completion on the event kernel,
// returning the canonical-order result.
func runEvent(states []*coreState) ScenarioResult {
	// next[i] caches core i's pending-event deadline; a core is ticked
	// only in the cycle its deadline names. Like the lockstep loop,
	// finished cores keep running — their traffic is real — until the
	// event cycle in which the last live core finishes its schedule.
	next := make([]uint64, len(states))
	for i, cs := range states {
		next[i] = cs.c.NextEvent()
	}
	live := len(states)
	for live > 0 {
		clock := next[0]
		for _, nx := range next[1:] {
			if nx < clock {
				clock = nx
			}
		}
		if clock == ^uint64(0) {
			// NextEvent always has a finite deadline for a core with
			// trace left; reaching here means its contract broke.
			panic("sim: event kernel stalled with no pending event")
		}
		for i, cs := range states {
			// next[i] >= clock for every core (clock is the minimum), so
			// this picks exactly the cores whose deadline is due.
			if next[i] != clock {
				continue
			}
			c := cs.c
			// Lazy catch-up: account the idle span since the core's last
			// tick, then run the one active cycle.
			if lag := clock - c.Now(); lag > 0 {
				c.AdvanceIdle(lag)
			}
			c.Tick()
			if !cs.done {
				cs.step()
				if cs.done {
					live--
				}
			}
			next[i] = c.NextEvent()
		}
	}
	return results(states)
}
