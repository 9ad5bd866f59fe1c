package cluster

// Sharded placement and self-healing rebalancing. With WithSharding enabled
// the master owns the component → slave placement: every known component is
// assigned to exactly one registered slave by a consistent-hash ring
// (ring.go), and membership changes move only the components whose owner
// changed. A move carries the component's model state with it — export the
// donor's MonitorSnapshot, restore it on the recipient, then cut the owner
// map over and push each slave its authoritative owned set — so a freshly
// moved component keeps its learned normal-fluctuation model instead of
// restarting the paper's training window from scratch.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// sharded reports whether the master owns component placement.
func (m *Master) sharded() bool { return m.shardVnodes > 0 }

// RegisterComponents declares components the master should place on the
// ring. In sharded mode slaves typically register with no components of
// their own; the component universe comes from discovery (or tests) through
// this call, which triggers a rebalance. Idempotent.
func (m *Master) RegisterComponents(comps ...string) {
	m.mu.Lock()
	for _, comp := range comps {
		m.known[comp] = true
	}
	m.mu.Unlock()
	if m.sharded() {
		m.triggerRebalance()
	}
}

// RegisteredComponents reports the size of the component registry: every
// component ever registered or observed, whether or not a slave currently
// covers it. Contrast Components, which lists only covered components.
func (m *Master) RegisteredComponents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.known)
}

// Assignments returns the current placement as owner → sorted components
// (empty outside sharded mode).
func (m *Master) Assignments() map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]string)
	for comp, own := range m.owner {
		out[own] = append(out[own], comp)
	}
	for _, comps := range out {
		sort.Strings(comps)
	}
	return out
}

// Owner returns the slave currently owning comp; ok is false when comp has
// not been placed (non-sharded mode, or no slave has ever been registered).
func (m *Master) Owner(comp string) (owner string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	owner, ok = m.owner[comp]
	return owner, ok
}

// triggerRebalance requests an asynchronous rebalance pass; with
// auto-rebalance disabled it is a no-op (tests drive Rebalance directly).
func (m *Master) triggerRebalance() {
	if !m.autoRebalance {
		return
	}
	select {
	case m.rebalanceReq <- struct{}{}:
	default: // a pass is already requested; it will see the latest state
	}
}

// rebalanceDebounce lets a burst of membership changes (a flapping slave, a
// staggered fleet restart) settle into one rebalance pass instead of one per
// event.
const rebalanceDebounce = 50 * time.Millisecond

// rebalanceLoop runs requested rebalance passes until the master closes.
func (m *Master) rebalanceLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.rebalanceReq:
		}
		timer := time.NewTimer(rebalanceDebounce)
		select {
		case <-m.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		if _, err := m.Rebalance(); err != nil {
			m.obs.Logger().Warn("rebalance pass failed", "err", err)
		}
	}
}

// Rebalance recomputes the placement over the currently registered slaves
// and moves every component whose owner changed, handing each moved
// component's model state from donor to recipient (cold-starting it on the
// recipient when the donor is dead or the transfer keeps failing). It
// returns how many components moved. Passes are serialized; concurrent
// callers run one after another, each over fresh membership.
func (m *Master) Rebalance() (moved int, err error) {
	if !m.sharded() {
		return 0, errors.New("cluster: master is not sharded")
	}
	m.rebalanceMu.Lock()
	defer m.rebalanceMu.Unlock()
	return m.rebalanceOnce()
}

// rebalanceMove is one component changing owner ("" from = first placement).
type rebalanceMove struct {
	comp, from, to string
}

func (m *Master) rebalanceOnce() (int, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, errors.New("cluster: master closed")
	}
	members := make([]string, 0, len(m.slaves))
	conns := make(map[string]*slaveConn, len(m.slaves))
	for name, sc := range m.slaves {
		members = append(members, name)
		conns[name] = sc
	}
	comps := make([]string, 0, len(m.known))
	for comp := range m.known {
		comps = append(comps, comp)
	}
	oldOwner := make(map[string]string, len(m.owner))
	for comp, own := range m.owner {
		oldOwner[comp] = own
	}
	m.mu.Unlock()
	if len(members) == 0 || len(comps) == 0 {
		// Total-eviction window (or nothing to place yet): keep the last
		// placement so the next joining slave restores it from checkpoints.
		return 0, nil
	}
	sort.Strings(members)
	sort.Strings(comps)

	ring := NewRing(m.shardVnodes)
	for _, name := range members {
		ring.Add(name)
	}
	want := ring.AssignBounded(comps, BalanceBound)

	// Warm-standby failover: a component leaving a dead donor is promoted in
	// place on its caught-up standby instead of moving to the ring's choice.
	// The standby's shadow monitor already holds the donor's replicated state,
	// so phase 1 has nothing to transfer and the slave's handleAssign adopts
	// the shadow without touching the checkpoint directory. A missing, dead,
	// or lagging standby falls back to the existing cold path.
	promoted := make(map[string]bool)
	if m.standbyOn {
		m.replMu.Lock()
		standbyOf := make(map[string]string, len(m.standbyOf))
		for comp, st := range m.standbyOf {
			standbyOf[comp] = st
		}
		replSent := make(map[string]uint64, len(m.replSent))
		for comp, seq := range m.replSent {
			replSent[comp] = seq
		}
		replAcked := make(map[string]uint64, len(m.replAcked))
		for comp, seq := range m.replAcked {
			replAcked[comp] = seq
		}
		replTickAt := make(map[string]time.Time, len(m.replTickAt))
		for slave, at := range m.replTickAt {
			replTickAt[slave] = at
		}
		m.replMu.Unlock()
		now := time.Now()
		for _, comp := range comps {
			from := oldOwner[comp]
			if from == "" || from == want[comp] {
				continue
			}
			if donor := conns[from]; donor != nil && !donor.isDead() {
				continue // live donor: a plain move, phase 1 carries the state
			}
			st := standbyOf[comp]
			stConn := conns[st]
			stLive := st != "" && stConn != nil && !stConn.isDead()
			caughtUp := replSent[comp] > 0 && replAcked[comp] == replSent[comp]
			fresh := m.replMaxLag <= 0 || now.Sub(replTickAt[from]) <= m.replMaxLag
			if stLive && caughtUp && fresh {
				want[comp] = st
				promoted[comp] = true
				m.obs.Registry().CounterWith("fchain_failover_total",
					"Dead-owner failovers by recovery mode.", map[string]string{"mode": "warm"}).Inc()
				_ = m.obs.EventJournal().Record("failover", map[string]any{
					"component": comp, "from": from, "to": st, "mode": "warm"})
				continue
			}
			if stLive && caughtUp && !fresh {
				_ = m.obs.EventJournal().Record("replica_lagging", map[string]any{
					"component": comp, "standby": st, "primary": from,
					"lag_seconds": now.Sub(replTickAt[from]).Seconds()})
			}
			m.obs.Registry().CounterWith("fchain_failover_total",
				"Dead-owner failovers by recovery mode.", map[string]string{"mode": "cold"}).Inc()
			_ = m.obs.EventJournal().Record("failover", map[string]any{
				"component": comp, "from": from, "to": want[comp], "mode": "cold"})
		}
	}

	// Recompute standby placement over the post-failover primaries, and the
	// per-slave shadow lists phase 2 will push. A promoted component's shadow
	// was consumed by its promotion, and a moved primary restarts its
	// replication sequence, so both cases reset the sent/acked bookkeeping —
	// the warm gate must not trust acks addressed to a previous placement.
	var newStandby map[string]string
	shadowOf := make(map[string][]string)
	resetComps := make(map[string]bool)
	standbyChanged := false
	if m.standbyOn {
		newStandby = ring.AssignStandby(comps, want, BalanceBound)
		for comp, st := range newStandby {
			shadowOf[st] = append(shadowOf[st], comp)
		}
		for _, comps := range shadowOf {
			sort.Strings(comps)
		}
		m.replMu.Lock()
		if len(newStandby) != len(m.standbyOf) {
			standbyChanged = true
		} else {
			for comp, st := range newStandby {
				if m.standbyOf[comp] != st {
					standbyChanged = true
					break
				}
			}
		}
		m.replMu.Unlock()
	}

	var moves []rebalanceMove
	for _, comp := range comps {
		to := want[comp]
		if from := oldOwner[comp]; from != to {
			moves = append(moves, rebalanceMove{comp: comp, from: from, to: to})
		}
	}
	if len(moves) == 0 && !standbyChanged {
		return 0, nil
	}
	_ = m.obs.EventJournal().Record("rebalance_started", map[string]any{
		"members": len(members), "moves": len(moves)})
	m.obs.Logger().Info("rebalance started", "members", len(members), "moves", len(moves))

	// Phase 1 — state transfer, before any ownership changes: donors still
	// own (and keep feeding) their components while copies move, so a
	// localization racing the rebalance still sees every component answered
	// by its pre-move owner.
	handoffs := 0
	for _, mv := range moves {
		if promoted[mv.comp] {
			continue // the standby's shadow is the state; nothing to transfer
		}
		if m.handoff(mv, conns) {
			handoffs++
		}
	}

	// Phase 2 — batch cutover: flip the owner map in one critical section,
	// then push every slave its authoritative owned set. handleAssign keeps
	// a monitor restored by phase 1 (or falls back to the shared-checkpoint
	// copy when the donor died before exporting) and drops what moved away.
	if m.standbyOn {
		// Reset replication bookkeeping before the cutover so acks addressed
		// to the old placement can never satisfy the warm gate: any component
		// whose primary or standby changed starts from sequence zero and must
		// be re-warmed by its (new) primary's next full ship. The same set
		// rides the assign pushes as ReplReset so quiet owners (no new
		// samples) forget their floors and actually re-ship.
		m.replMu.Lock()
		for comp := range m.replSent {
			if _, ok := newStandby[comp]; !ok {
				delete(m.replSent, comp)
				delete(m.replAcked, comp)
			}
		}
		for comp, st := range newStandby {
			if m.standbyOf[comp] != st || oldOwner[comp] != want[comp] {
				resetComps[comp] = true
				delete(m.replSent, comp)
				delete(m.replAcked, comp)
			}
		}
		m.standbyOf = newStandby
		m.replOwner = make(map[string]string, len(newStandby))
		for comp := range newStandby {
			m.replOwner[comp] = want[comp]
		}
		m.replMu.Unlock()
	}
	m.mu.Lock()
	for comp, to := range want {
		m.owner[comp] = to
	}
	assign := make(map[string][]string, len(m.slaves))
	replReset := make(map[string][]string)
	push := make(map[string]*slaveConn, len(m.slaves))
	for name, sc := range m.slaves {
		assign[name] = nil // a slave owning nothing still needs the empty push
		push[name] = sc
	}
	for comp, own := range m.owner {
		if _, ok := push[own]; ok {
			assign[own] = append(assign[own], comp)
			if resetComps[comp] {
				replReset[own] = append(replReset[own], comp)
			}
		}
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for name, sc := range push {
		owned := assign[name]
		sort.Strings(owned)
		sort.Strings(replReset[name])
		wg.Add(1)
		go func(sc *slaveConn, owned, shadow, reset []string) {
			defer wg.Done()
			if _, err := m.call(sc, &envelope{Type: typeAssign, Components: owned, Shadow: shadow, ReplReset: reset}, m.handoffTimeout); err != nil {
				m.obs.Logger().Warn("assignment push failed", "slave", sc.name, "err", err)
			}
		}(sc, owned, shadowOf[name], replReset[name])
	}
	wg.Wait()

	m.obs.Registry().Counter("fchain_rebalance_components_total",
		"Components moved to a new owner by rebalancing.").Add(int64(len(moves)))
	_ = m.obs.EventJournal().Record("rebalance_done", map[string]any{
		"moved": len(moves), "handoffs": handoffs})
	m.obs.Logger().Info("rebalance done", "moved", len(moves), "handoffs", handoffs)
	return len(moves), nil
}

// handoff moves one component's model state from donor to recipient with
// bounded retries, reporting whether the warm transfer landed. Any failure
// path leaves the recipient to cold-start (or restore the shared checkpoint)
// when its assignment push arrives — the rebalance never wedges on a dead
// donor.
func (m *Master) handoff(mv rebalanceMove, conns map[string]*slaveConn) bool {
	if hook := m.handoffHook.Load(); hook != nil {
		(*hook)(mv.comp, mv.from, mv.to) // chaos tests kill peers mid-handoff here
	}
	recip := conns[mv.to]
	if recip == nil || recip.isDead() {
		return false
	}
	donor := conns[mv.from]
	if mv.from == "" || donor == nil || donor.isDead() {
		_ = m.obs.EventJournal().Record("handoff_cold", map[string]any{
			"component": mv.comp, "from": mv.from, "to": mv.to})
		return false
	}
	var lastErr error
	for attempt := 0; attempt <= m.handoffRetries; attempt++ {
		if donor.isDead() || recip.isDead() {
			break
		}
		state, err := m.call(donor, &envelope{Type: typeExport, Component: mv.comp}, m.handoffTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if _, err := m.call(recip, &envelope{Type: typeRestore, Component: mv.comp, State: state.State}, m.handoffTimeout); err != nil {
			lastErr = err
			continue
		}
		_ = m.obs.EventJournal().Record("handoff", map[string]any{
			"component": mv.comp, "from": mv.from, "to": mv.to, "attempt": attempt})
		return true
	}
	m.obs.Logger().Warn("handoff failed; recipient will cold-start",
		"component", mv.comp, "from", mv.from, "to", mv.to, "err", lastErr)
	_ = m.obs.EventJournal().Record("handoff_cold", map[string]any{
		"component": mv.comp, "from": mv.from, "to": mv.to})
	return false
}

// call sends one correlated request to a peer and waits for its response
// (ack, state, or error) within timeout.
func (m *Master) call(sc *slaveConn, req *envelope, timeout time.Duration) (*envelope, error) {
	id := m.reqCounter.Add(1)
	req.ID = id
	ch := make(chan *envelope, 1)
	if !sc.addPending(id, ch) {
		return nil, fmt.Errorf("cluster: %s disconnected", sc.name)
	}
	if err := sc.w.write(req, timeout); err != nil {
		sc.removePending(id)
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case env := <-ch:
		if env.Type == typeError {
			return env, fmt.Errorf("cluster: %s: %s", sc.name, env.Err)
		}
		return env, nil
	case <-timer.C:
		sc.removePending(id)
		return nil, fmt.Errorf("cluster: %s: %s timed out", sc.name, req.Type)
	case <-m.stop:
		sc.removePending(id)
		return nil, errors.New("cluster: master closed")
	}
}
