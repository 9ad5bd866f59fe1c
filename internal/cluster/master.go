package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/obs"
)

// Master is the FChain master daemon: it accepts slave registrations and,
// when a performance anomaly is detected, fans an analyze request out to
// every slave and runs the integrated diagnosis over their reports.
//
// The master is built for the degraded conditions it diagnoses: it probes
// registered slaves with periodic heartbeats and evicts dead connections, a
// per-slave circuit breaker stops analyze fan-out from burning its deadline
// on slaves that keep failing, duplicate registrations replace (and close)
// the stale connection, and Localize retries unanswered slaves within its
// deadline before reporting how much of the application its diagnosis saw.
type Master struct {
	cfg  core.Config
	deps *depgraph.Graph
	obs  *obs.Sink

	ln net.Listener

	hbInterval  time.Duration
	hbMaxMisses int
	retries     int
	localizeTO  time.Duration
	brThreshold int
	brCooldown  time.Duration

	quorum        float64
	admit         *gate
	slaveInflight int

	// Sharded mode (shard.go): vnodes > 0 places every known component on a
	// consistent-hash ring over the registered slaves, and membership
	// changes trigger incremental rebalancing with checkpoint handoffs.
	shardVnodes    int
	handoffTimeout time.Duration
	handoffRetries int
	autoRebalance  bool

	rebalanceMu  sync.Mutex    // serializes rebalance passes
	rebalanceReq chan struct{} // buffered(1) trigger for the auto-rebalance loop
	handoffHook  atomic.Pointer[func(comp, from, to string)]

	// Warm-standby replication (standbyOn): every component gets a standby
	// owner next to its primary on the ring, primaries ship state deltas
	// upstream, and the master relays each to the standby. replSent/replAcked
	// track the per-component sequence numbers relayed and acked — a
	// component is warm-promotable only while the two match — and replTickAt
	// records each slave's last clean replication tick, bounding how stale
	// its standbys can be (replMaxLag; 0 = no bound). replOwner is the
	// primary each standby was placed for: frames from any other slave
	// carry another primary's sequence numbers and never touch the
	// bookkeeping. replMu is never held together with mu.
	standbyOn  bool
	replMaxLag time.Duration
	replMu     sync.Mutex
	standbyOf  map[string]string
	replOwner  map[string]string
	replSent   map[string]uint64
	replAcked  map[string]uint64
	replTickAt map[string]time.Time

	reqCounter atomic.Uint64

	mu      sync.Mutex
	slaves  map[string]*slaveConn
	aggs    map[string]*slaveConn // registered aggregators by name
	known   map[string]bool       // every component ever registered
	owner   map[string]string     // sharded mode: component -> owning slave
	evicted map[string]bool       // slaves lost since their last registration
	closed  bool
	history []DiagnosisRecord
	svc     *Service // service-mode intake; nil until a Service attaches
	stop    chan struct{}

	wg sync.WaitGroup
}

// MasterOption configures a Master.
type MasterOption func(*Master)

// WithHeartbeat enables periodic liveness probing: every interval the master
// pings each registered slave; a slave missing maxMisses consecutive pongs
// is evicted (its connection closed, pending requests failed). interval <= 0
// disables probing.
func WithHeartbeat(interval time.Duration, maxMisses int) MasterOption {
	return func(m *Master) {
		m.hbInterval = interval
		if maxMisses > 0 {
			m.hbMaxMisses = maxMisses
		}
	}
}

// WithLocalizeRetries sets how many extra attempts Localize spends per
// unanswered slave inside its deadline (default 1).
func WithLocalizeRetries(n int) MasterOption {
	return func(m *Master) {
		if n >= 0 {
			m.retries = n
		}
	}
}

// WithLocalizeTimeout sets the overall Localize deadline applied when the
// caller's context has none (default 30s).
func WithLocalizeTimeout(d time.Duration) MasterOption {
	return func(m *Master) {
		if d > 0 {
			m.localizeTO = d
		}
	}
}

// WithBreaker tunes the per-slave circuit breaker: after threshold
// consecutive analyze failures the slave is skipped until cooldown elapses
// (threshold <= 0 disables the breaker).
func WithBreaker(threshold int, cooldown time.Duration) MasterOption {
	return func(m *Master) {
		m.brThreshold = threshold
		if cooldown > 0 {
			m.brCooldown = cooldown
		}
	}
}

// quorumGraceCap bounds how long Localize keeps collecting stragglers after
// the quorum is met: a quarter of the remaining deadline, at most this.
const quorumGraceCap = 500 * time.Millisecond

// WithQuorum sets the slave answer quorum as a fraction in (0, 1]: Localize
// diagnoses once ceil(frac * slaves) slaves have answered plus a short
// straggler grace (min(remaining/4, quorumGraceCap); see the collect loop),
// attributing whatever is still missing in Coverage/Degraded, and refuses
// with ErrQuorumNotMet when fewer answer before the deadline. frac <= 0
// (the default) disables both behaviors: Localize waits for every slave
// within its deadline and diagnoses best-effort over whatever arrived.
func WithQuorum(frac float64) MasterOption {
	return func(m *Master) {
		if frac > 1 {
			frac = 1
		}
		m.quorum = frac
	}
}

// WithAdmission bounds concurrent Localize calls: at most limit run at
// once, at most queue more wait (LIFO, newest first — the freshest deadline
// wins; an overflowing queue sheds its oldest waiter). Shed calls return
// ErrOverloaded immediately with Overloaded set on the result. limit <= 0
// (the default) admits everything.
func WithAdmission(limit, queue int) MasterOption {
	return func(m *Master) { m.admit = newGate(limit, queue) }
}

// WithSlaveInflight caps concurrent analyze requests outstanding to any one
// slave across overlapping Localize calls (default 8). A slave at its cap
// fails fast for the extra caller instead of queueing blind. n <= 0 removes
// the cap.
func WithSlaveInflight(n int) MasterOption {
	return func(m *Master) { m.slaveInflight = n }
}

// WithMasterObs attaches an observability sink: every Localize records a
// pipeline trace (attached to the result and retained in the sink's trace
// ring), counters and latency histograms land in the sink's registry, events
// in its journal, and lifecycle transitions in its logger. All sink
// components are optional; a nil sink (the default) disables everything.
func WithMasterObs(sink *obs.Sink) MasterOption {
	return func(m *Master) { m.obs = sink }
}

// WithSharding enables sharded placement: every known component is assigned
// to exactly one slave by a consistent-hash ring with vnodes virtual nodes
// per member (vnodes <= 0 selects DefaultVnodes), membership changes trigger
// incremental rebalancing with checkpoint handoffs (see shard.go), and
// Localize counts only each component's owner's report.
func WithSharding(vnodes int) MasterOption {
	return func(m *Master) {
		if vnodes <= 0 {
			vnodes = DefaultVnodes
		}
		m.shardVnodes = vnodes
	}
}

// WithHandoffTimeout bounds each step of a model handoff (export, restore,
// assign ack) during rebalancing (default 5s).
func WithHandoffTimeout(d time.Duration) MasterOption {
	return func(m *Master) {
		if d > 0 {
			m.handoffTimeout = d
		}
	}
}

// WithHandoffRetries sets how many extra attempts a failed handoff gets
// before the recipient cold-starts the component (default 2).
func WithHandoffRetries(n int) MasterOption {
	return func(m *Master) {
		if n >= 0 {
			m.handoffRetries = n
		}
	}
}

// WithStandby gives every placed component a warm standby owner (sharded
// mode only): rebalancing assigns each component a second, distinct slave on
// the ring, slaves replicate state deltas to it through the master (see
// WithReplication on the slave), and when the primary dies or is evicted the
// rebalance promotes the standby's shadow monitor in place — no checkpoint
// read, no handoff round-trip — falling back to the cold-start path only
// when the standby is gone, behind on acks, or past the lag bound.
func WithStandby(on bool) MasterOption {
	return func(m *Master) { m.standbyOn = on }
}

// WithReplMaxLag bounds how stale a standby may be and still be promoted
// warm: promotion requires the dead primary's last clean replication tick to
// be at most d old. d <= 0 (the default) disables the bound — promotion then
// only requires every relayed frame to be acked.
func WithReplMaxLag(d time.Duration) MasterOption {
	return func(m *Master) {
		if d > 0 {
			m.replMaxLag = d
		}
	}
}

// WithAutoRebalance controls whether membership changes trigger rebalancing
// automatically (the default). Disabled, placement changes only when the
// caller invokes Rebalance — tests use this to make move windows
// deterministic.
func WithAutoRebalance(on bool) MasterOption {
	return func(m *Master) { m.autoRebalance = on }
}

// slaveConn is the master-side state of one registered peer (a slave or an
// aggregator — both speak the same correlated request/response protocol).
type slaveConn struct {
	name       string
	components []string
	via        string // aggregator this slave also answers through ("" = direct only)
	w          *connWriter

	// replQ carries this slave's inbound replicate frames to a dedicated
	// drainer goroutine: relaying blocks on the standby's ack, so it cannot
	// run on the reader (pings would starve), and per-frame goroutines would
	// lose the per-component ordering the delta replay depends on. Nil for
	// aggregators. The reader is the only sender and closes it on exit.
	replQ chan *envelope

	mu       sync.Mutex
	pending  map[uint64]chan *envelope
	dead     bool // connection gone; no retries will succeed
	misses   int  // consecutive heartbeat misses
	failures int  // consecutive analyze failures (breaker input)
	openedAt time.Time
	open     bool // breaker open
	inflight int  // analyze requests currently outstanding to this slave
}

// acquireSlot claims one of the slave's in-flight analyze slots; max <= 0
// means unlimited.
func (sc *slaveConn) acquireSlot(max int) bool {
	if max <= 0 {
		return true
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.inflight >= max {
		return false
	}
	sc.inflight++
	return true
}

func (sc *slaveConn) releaseSlot(max int) {
	if max <= 0 {
		return
	}
	sc.mu.Lock()
	if sc.inflight > 0 {
		sc.inflight--
	}
	sc.mu.Unlock()
}

// addPending registers a response channel for request id; it returns false
// if the connection is already dead.
func (sc *slaveConn) addPending(id uint64, ch chan *envelope) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return false
	}
	sc.pending[id] = ch
	return true
}

func (sc *slaveConn) removePending(id uint64) {
	sc.mu.Lock()
	delete(sc.pending, id)
	sc.mu.Unlock()
}

// takePending resolves a response channel for id, if any.
func (sc *slaveConn) takePending(id uint64) (chan *envelope, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ch, ok := sc.pending[id]
	if ok {
		delete(sc.pending, id)
	}
	return ch, ok
}

// failAll marks the connection dead and fails every in-flight request so
// waiting Localize goroutines return immediately instead of burning their
// full timeout.
func (sc *slaveConn) failAll(reason string) {
	sc.mu.Lock()
	pending := sc.pending
	sc.pending = make(map[uint64]chan *envelope)
	sc.dead = true
	sc.mu.Unlock()
	for _, ch := range pending {
		ch <- &envelope{Type: typeError, Err: reason}
	}
}

// isDead reports whether the connection has been torn down.
func (sc *slaveConn) isDead() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.dead
}

// breakerOpen reports whether analyze fan-out should skip this slave; an
// open breaker half-opens (admits one probe attempt) after cooldown.
func (sc *slaveConn) breakerOpen(cooldown time.Duration) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.open {
		return false
	}
	if time.Since(sc.openedAt) >= cooldown {
		sc.open = false // half-open: let the next attempt probe it
		return false
	}
	return true
}

// recordResult feeds the breaker with an analyze outcome.
func (sc *slaveConn) recordResult(ok bool, threshold int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if ok {
		sc.failures = 0
		sc.open = false
		return
	}
	sc.failures++
	if threshold > 0 && sc.failures >= threshold && !sc.open {
		sc.open = true
		sc.openedAt = time.Now()
	}
}

// NewMaster creates a master with the given FChain configuration and
// (possibly empty) dependency graph from offline discovery.
func NewMaster(cfg core.Config, deps *depgraph.Graph, opts ...MasterOption) *Master {
	m := &Master{
		cfg:           cfg,
		deps:          deps,
		hbMaxMisses:   3,
		retries:       1,
		localizeTO:    30 * time.Second,
		brThreshold:   3,
		brCooldown:    10 * time.Second,
		slaveInflight: 8,

		handoffTimeout: 5 * time.Second,
		handoffRetries: 2,
		autoRebalance:  true,
		rebalanceReq:   make(chan struct{}, 1),

		slaves:  make(map[string]*slaveConn),
		aggs:    make(map[string]*slaveConn),
		evicted: make(map[string]bool),
		known:   make(map[string]bool),
		owner:   make(map[string]string),
		stop:    make(chan struct{}),

		standbyOf:  make(map[string]string),
		replOwner:  make(map[string]string),
		replSent:   make(map[string]uint64),
		replAcked:  make(map[string]uint64),
		replTickAt: make(map[string]time.Time),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Start begins listening on addr (e.g. "127.0.0.1:0"). It returns once the
// listener is ready; connections are served in the background.
func (m *Master) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: master listen: %w", err)
	}
	m.Serve(ln)
	return nil
}

// Serve starts the master on an already-created listener (chaos tests
// inject fault-wrapped listeners this way).
func (m *Master) Serve(ln net.Listener) {
	m.ln = ln
	m.wg.Add(1)
	go m.acceptLoop()
	if m.hbInterval > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	if m.sharded() && m.autoRebalance {
		m.wg.Add(1)
		go m.rebalanceLoop()
	}
}

// Addr returns the listening address, valid after Start.
func (m *Master) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

func (m *Master) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					m.obs.Logger().Error("slave connection handler panicked", "panic", fmt.Sprint(r))
					m.obs.Registry().Counter("fchain_conn_panics_total", "Recovered connection handler panics.").Inc()
					_ = conn.Close()
				}
			}()
			m.serveConn(conn)
		}()
	}
}

// serveConn handles one peer connection. A slave opens with a register
// frame and is served analyze responses; a violation client opens with a
// violate frame and is served verdicts (service mode).
func (m *Master) serveConn(conn net.Conn) {
	defer conn.Close()
	r := newReader(conn)
	env, err := readFrame(r)
	if err != nil {
		return
	}
	if env.Type == typeViolate {
		m.serveViolationConn(conn, r, env)
		return
	}
	if env.Type != typeRegister || env.Slave == "" {
		return // malformed or impatient peer; drop it
	}
	if env.Role == roleAggregator {
		m.serveAggregator(conn, r, env)
		return
	}
	sc := &slaveConn{
		name:       env.Slave,
		components: append([]string(nil), env.Components...),
		via:        env.Via,
		w:          newConnWriter(conn),
		pending:    make(map[uint64]chan *envelope),
		replQ:      make(chan *envelope, replQueueDepth),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	// A duplicate registration (typically a reconnecting slave whose old
	// connection has not yet died) replaces the stale connection: close it
	// and fail its in-flight requests so nothing leaks.
	if old := m.slaves[sc.name]; old != nil {
		_ = old.w.conn.Close()
		defer old.failAll(fmt.Sprintf("slave %s re-registered", sc.name))
	}
	m.slaves[sc.name] = sc
	delete(m.evicted, sc.name)
	for _, comp := range sc.components {
		m.known[comp] = true
	}
	registered := len(m.slaves)
	var owned []string
	if m.sharded() {
		// The rejoining slave follows the current placement until the
		// rebalance triggered below moves anything; pushing its owned set
		// immediately re-creates its monitors (restoring from shared
		// checkpoints where available) so it answers the next Localize.
		for comp, own := range m.owner {
			if own == sc.name {
				owned = append(owned, comp)
			}
		}
		sort.Strings(owned)
	}
	m.mu.Unlock()
	m.obs.Logger().Info("slave registered", "slave", sc.name, "components", len(sc.components), "via", sc.via)
	m.obs.Registry().Gauge("fchain_slaves_registered", "Currently registered slaves.").Set(float64(registered))
	_ = m.obs.EventJournal().Record("slave_registered", map[string]any{"slave": sc.name, "components": sc.components})
	if m.sharded() {
		m.obs.Registry().Gauge("fchain_cluster_members", "Slaves on the placement ring.").Set(float64(registered))
		_ = m.obs.EventJournal().Record("member_joined", map[string]any{"slave": sc.name})
		var shadow []string
		if m.standbyOn {
			m.replMu.Lock()
			for comp, st := range m.standbyOf {
				if st == sc.name {
					shadow = append(shadow, comp)
				}
			}
			m.replMu.Unlock()
			sort.Strings(shadow)
		}
		if owned != nil || shadow != nil {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				// ReplReset covers everything owned: a reconnecting slave may
				// hold floors from before the outage while its components'
				// standbys moved, so it re-ships full state once.
				_, _ = m.call(sc, &envelope{Type: typeAssign, Components: owned, Shadow: shadow, ReplReset: owned}, m.handoffTimeout)
			}()
		}
		m.triggerRebalance()
	}
	defer func() {
		m.mu.Lock()
		if m.slaves[sc.name] == sc {
			delete(m.slaves, sc.name)
			if !m.closed {
				m.evicted[sc.name] = true
			}
		}
		remaining := len(m.slaves)
		closed := m.closed
		m.mu.Unlock()
		m.obs.Logger().Warn("slave disconnected", "slave", sc.name)
		m.obs.Registry().Gauge("fchain_slaves_registered", "Currently registered slaves.").Set(float64(remaining))
		_ = m.obs.EventJournal().Record("slave_disconnected", map[string]any{"slave": sc.name})
		if m.sharded() && !closed {
			m.obs.Registry().Gauge("fchain_cluster_members", "Slaves on the placement ring.").Set(float64(remaining))
			_ = m.obs.EventJournal().Record("member_evicted", map[string]any{"slave": sc.name})
			m.triggerRebalance()
		}
		sc.failAll(fmt.Sprintf("slave %s disconnected", sc.name))
	}()

	m.wg.Add(1)
	go m.drainReplicate(sc)
	m.servePeerFrames(r, sc)
	close(sc.replQ) // the reader above is the only sender
}

// servePeerFrames routes a registered peer's inbound frames until the
// connection dies: responses (reports, errors, pongs, handoff state and
// acks) resolve their pending request; pings are answered in place.
func (m *Master) servePeerFrames(r *bufio.Reader, sc *slaveConn) {
	for {
		env, err := readFrame(r)
		if err != nil {
			return
		}
		switch env.Type {
		case typeReports, typeError, typePong, typeState, typeAck:
			if ch, ok := sc.takePending(env.ID); ok {
				ch <- env
			}
		case typeReplicate:
			if sc.replQ == nil {
				break // aggregators do not replicate
			}
			select {
			case sc.replQ <- env:
			default:
				// Overflow: NAK instead of blocking the reader; the primary
				// recovers with a full resend on a later tick.
				_ = sc.w.write(&envelope{Type: typeError, ID: env.ID, Component: env.Component,
					Code: codeReplFull, Err: "cluster: replication relay queue full"}, 5*time.Second)
			}
		case typePing:
			_ = sc.w.write(&envelope{Type: typePong, ID: env.ID}, 5*time.Second)
		}
	}
}

// replQueueDepth bounds a slave's queued replicate frames awaiting relay. A
// full 10k-component sync at one frame per component fits with headroom;
// overflow NAKs rather than blocks.
const replQueueDepth = 16384

// drainReplicate relays one slave's replicate frames in arrival order until
// its connection dies. Ordering matters: an incremental delta only applies
// on top of the exact state the previous frame left behind.
func (m *Master) drainReplicate(sc *slaveConn) {
	defer m.wg.Done()
	for env := range sc.replQ {
		m.relayReplicate(sc, env)
	}
}

// relayReplicate forwards one replication frame from its primary to the
// component's standby and reports the outcome back to the primary: an ack
// advances the primary's floors (already advanced optimistically) and the
// master's acked sequence, a codeReplFull error makes the primary resend the
// full snapshot. A frame with no live standby to receive it is acked without
// advancing the acked sequence, so the component simply stays cold for
// promotion purposes until a standby catches up. A clean-tick marker (empty
// Component) timestamps the slave's replication round for the lag bound.
func (m *Master) relayReplicate(primary *slaveConn, env *envelope) {
	if env.Component == "" {
		now := time.Now()
		m.replMu.Lock()
		prev := m.replTickAt[primary.name]
		m.replTickAt[primary.name] = now
		m.replMu.Unlock()
		lag := time.Duration(0)
		if !prev.IsZero() {
			lag = now.Sub(prev)
		}
		m.obs.Registry().GaugeWith("fchain_repl_lag_seconds",
			"Seconds between a slave's consecutive clean replication ticks, sampled at each tick.",
			map[string]string{"slave": primary.name}).Set(lag.Seconds())
		_ = m.obs.EventJournal().Record("repl_tick", map[string]any{
			"slave": primary.name, "lag_seconds": lag.Seconds()})
		_ = primary.w.write(&envelope{Type: typeAck, ID: env.ID}, 5*time.Second)
		return
	}
	comp := env.Component
	m.replMu.Lock()
	current := !m.standbyOn || m.replOwner[comp] == primary.name
	if current && env.Seq > m.replSent[comp] {
		m.replSent[comp] = env.Seq
	}
	st := m.standbyOf[comp]
	m.replMu.Unlock()
	if !m.standbyOn {
		// Replication without standby placement configured: ack so the
		// primary does not resend forever; nothing will ever consume these.
		_ = primary.w.write(&envelope{Type: typeAck, ID: env.ID, Component: comp, Seq: env.Seq}, 5*time.Second)
		return
	}
	if !current {
		// A donor that has not yet applied its cutover, or a new owner
		// shipping before it: NAK, so a slave that does own comp after the
		// cutover re-ships it in full.
		_ = primary.w.write(&envelope{Type: typeError, ID: env.ID, Component: comp, Code: codeReplFull,
			Err: fmt.Sprintf("cluster: %s is not the primary of %q", primary.name, comp)}, 5*time.Second)
		return
	}
	var stConn *slaveConn
	if st != "" && st != primary.name {
		m.mu.Lock()
		stConn = m.slaves[st]
		m.mu.Unlock()
	}
	if stConn == nil || stConn.isDead() {
		// A standby is expected but unreachable (not yet placed, or down).
		// NAK so the primary keeps offering the full snapshot: that is what
		// lets a late-assigned or recovered standby warm up even when no new
		// samples arrive to trigger further deltas.
		_ = primary.w.write(&envelope{Type: typeError, ID: env.ID, Component: comp, Code: codeReplFull,
			Err: fmt.Sprintf("cluster: no live standby for %q", comp)}, 5*time.Second)
		return
	}
	m.obs.Registry().Counter("fchain_repl_bytes_total",
		"Replication delta bytes relayed to standbys.").Add(int64(len(env.State)))
	_ = m.obs.EventJournal().Record("repl_relay", map[string]any{
		"component": comp, "from": primary.name, "to": st, "seq": env.Seq, "bytes": len(env.State)})
	if _, err := m.call(stConn, &envelope{Type: typeReplicate, Component: comp, Seq: env.Seq, State: env.State}, m.handoffTimeout); err != nil {
		_ = primary.w.write(&envelope{Type: typeError, ID: env.ID, Component: comp, Code: codeReplFull,
			Err: fmt.Sprintf("cluster: relay to standby %s: %v", st, err)}, 5*time.Second)
		return
	}
	m.replMu.Lock()
	// An ack that lands after a rebalance moved comp's primary or standby
	// belongs to the old placement, which the cutover's reset forgot.
	if m.replOwner[comp] == primary.name && m.standbyOf[comp] == st && env.Seq > m.replAcked[comp] {
		m.replAcked[comp] = env.Seq
	}
	m.replMu.Unlock()
	_ = primary.w.write(&envelope{Type: typeAck, ID: env.ID, Component: comp, Seq: env.Seq}, 5*time.Second)
}

// Standby returns the slave currently standing by for comp; ok is false when
// comp has no standby (standby mode off, fewer than two slaves, or no
// rebalance has placed it yet).
func (m *Master) Standby(comp string) (standby string, ok bool) {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	standby, ok = m.standbyOf[comp]
	return standby, ok
}

// StandbyCaughtUp reports whether comp's standby has acked every replication
// frame relayed so far (at least one): the condition under which a dead
// primary's component is promoted warm.
func (m *Master) StandbyCaughtUp(comp string) bool {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	return m.replSent[comp] > 0 && m.replAcked[comp] == m.replSent[comp]
}

// serveAggregator handles one aggregator's upstream connection: it registers
// into the aggregator tier (not the slave set — aggregators own no
// components and do not count toward quorum) and is served like any other
// correlated-request peer.
func (m *Master) serveAggregator(conn net.Conn, r *bufio.Reader, env *envelope) {
	sc := &slaveConn{
		name:    env.Slave,
		w:       newConnWriter(conn),
		pending: make(map[uint64]chan *envelope),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if old := m.aggs[sc.name]; old != nil {
		_ = old.w.conn.Close()
		defer old.failAll(fmt.Sprintf("aggregator %s re-registered", sc.name))
	}
	m.aggs[sc.name] = sc
	registered := len(m.aggs)
	m.mu.Unlock()
	m.obs.Logger().Info("aggregator registered", "aggregator", sc.name)
	m.obs.Registry().Gauge("fchain_aggregators_registered", "Currently registered aggregators.").Set(float64(registered))
	_ = m.obs.EventJournal().Record("aggregator_registered", map[string]any{"aggregator": sc.name})
	defer func() {
		m.mu.Lock()
		if m.aggs[sc.name] == sc {
			delete(m.aggs, sc.name)
		}
		remaining := len(m.aggs)
		m.mu.Unlock()
		m.obs.Logger().Warn("aggregator disconnected", "aggregator", sc.name)
		m.obs.Registry().Gauge("fchain_aggregators_registered", "Currently registered aggregators.").Set(float64(remaining))
		_ = m.obs.EventJournal().Record("aggregator_disconnected", map[string]any{"aggregator": sc.name})
		sc.failAll(fmt.Sprintf("aggregator %s disconnected", sc.name))
	}()
	m.servePeerFrames(r, sc)
}

// heartbeatLoop probes every registered slave each interval and evicts the
// ones that keep missing pongs.
func (m *Master) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		conns := make([]*slaveConn, 0, len(m.slaves)+len(m.aggs))
		for _, sc := range m.slaves {
			conns = append(conns, sc)
		}
		for _, sc := range m.aggs {
			conns = append(conns, sc)
		}
		m.mu.Unlock()
		var wg sync.WaitGroup
		for _, sc := range conns {
			wg.Add(1)
			go func(sc *slaveConn) {
				defer wg.Done()
				m.probe(sc)
			}(sc)
		}
		wg.Wait()
	}
}

// probe sends one ping and records a miss if the pong does not arrive within
// the heartbeat interval; maxMisses consecutive misses evict the slave.
func (m *Master) probe(sc *slaveConn) {
	id := m.reqCounter.Add(1)
	ch := make(chan *envelope, 1)
	if !sc.addPending(id, ch) {
		return
	}
	if err := sc.w.write(&envelope{Type: typePing, ID: id}, m.hbInterval); err != nil {
		sc.removePending(id)
		m.miss(sc)
		return
	}
	select {
	case <-ch:
		sc.mu.Lock()
		sc.misses = 0
		sc.mu.Unlock()
	case <-time.After(m.hbInterval):
		sc.removePending(id)
		m.miss(sc)
	case <-m.stop:
		sc.removePending(id)
	}
}

func (m *Master) miss(sc *slaveConn) {
	sc.mu.Lock()
	sc.misses++
	misses := sc.misses
	evict := sc.misses >= m.hbMaxMisses
	sc.mu.Unlock()
	m.obs.Logger().Debug("heartbeat miss", "slave", sc.name, "misses", misses)
	if evict {
		m.obs.Logger().Warn("evicting slave after missed heartbeats", "slave", sc.name, "misses", misses)
		m.obs.Registry().Counter("fchain_slave_evictions_total", "Slaves evicted for missed heartbeats.").Inc()
		// Closing the connection makes its serveConn exit, which evicts
		// the slave and fails any in-flight requests.
		_ = sc.w.conn.Close()
	}
}

// HealthState classifies a slave's liveness as seen by the master.
type HealthState string

const (
	// Healthy: registered, no outstanding heartbeat misses, breaker closed.
	Healthy HealthState = "healthy"
	// Degraded: registered but missing heartbeats or behind an open
	// circuit breaker.
	Degraded HealthState = "degraded"
	// Dead: evicted (connection lost or heartbeat limit hit) and not yet
	// re-registered.
	Dead HealthState = "dead"
)

// SlaveHealth is one slave's liveness snapshot.
type SlaveHealth struct {
	State       HealthState `json:"state"`
	Misses      int         `json:"misses,omitempty"`       // consecutive heartbeat misses
	Failures    int         `json:"failures,omitempty"`     // consecutive analyze failures
	BreakerOpen bool        `json:"breaker_open,omitempty"` // analyze fan-out is skipping it
}

// Health returns a liveness snapshot for every slave the master has seen:
// registered slaves are healthy or degraded; slaves lost since their last
// registration are dead.
func (m *Master) Health() map[string]SlaveHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]SlaveHealth, len(m.slaves)+len(m.evicted))
	for name, sc := range m.slaves {
		sc.mu.Lock()
		h := SlaveHealth{State: Healthy, Misses: sc.misses, Failures: sc.failures, BreakerOpen: sc.open}
		sc.mu.Unlock()
		if h.Misses > 0 || h.BreakerOpen {
			h.State = Degraded
		}
		out[name] = h
	}
	for name := range m.evicted {
		out[name] = SlaveHealth{State: Dead}
	}
	return out
}

// Slaves returns the names of the registered slaves, sorted.
func (m *Master) Slaves() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.slaves))
	for name := range m.slaves {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Components returns every component monitored by a registered slave.
func (m *Master) Components() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, sc := range m.slaves {
		out = append(out, sc.components...)
	}
	sort.Strings(out)
	return out
}

// DiagnosisRecord is one past localization kept in the master's journal.
// Tenant and App are set for localizations that entered through the
// service-mode violation intake; ad-hoc Localize calls leave them empty.
type DiagnosisRecord struct {
	TV        int64          `json:"tv"`
	Tenant    string         `json:"tenant,omitempty"`
	App       string         `json:"app,omitempty"`
	Diagnosis core.Diagnosis `json:"diagnosis"`
	Degraded  bool           `json:"degraded,omitempty"`
}

// History returns the master's past localizations, oldest first (bounded to
// the most recent historyLimit entries).
func (m *Master) History() []DiagnosisRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DiagnosisRecord, len(m.history))
	copy(out, m.history)
	return out
}

// restoreHistory seeds the master's history with records rebuilt from a
// journal replay (oldest first). It prepends: localizations already run this
// process stay newest, and the combined journal is re-bounded to
// historyLimit.
func (m *Master) restoreHistory(recs []DiagnosisRecord) {
	if len(recs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	combined := make([]DiagnosisRecord, 0, len(recs)+len(m.history))
	combined = append(combined, recs...)
	combined = append(combined, m.history...)
	if len(combined) > historyLimit {
		combined = combined[len(combined)-historyLimit:]
	}
	m.history = combined
}

// attachService registers the service-mode intake so violation connections
// are routed to it; the latest attached service wins.
func (m *Master) attachService(s *Service) {
	m.mu.Lock()
	m.svc = s
	m.mu.Unlock()
}

// service returns the attached service-mode intake, if any.
func (m *Master) service() *Service {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.svc
}

// historyLimit bounds the master's diagnosis journal.
const historyLimit = 128

// ErrNoSlaves is returned by Localize when no slave is registered.
var ErrNoSlaves = errors.New("cluster: no slaves registered")

// Localize triggers the fault localization pipeline: every registered slave
// analyzes its look-back window ending at tv and the master diagnoses the
// combined reports. Each unanswered slave is retried (fresh request, fresh
// ID) within the overall deadline — taken from ctx, or the configured
// default when ctx has none. Slaves that still fail are skipped: their
// components stay in the application size for the external-factor check
// (known from registration), and the returned LocalizeResult carries the
// resulting coverage so callers can tell a confident localization from a
// partial-view one.
func (m *Master) Localize(ctx context.Context, tv int64) (core.LocalizeResult, error) {
	return m.localize(ctx, tv, "", "")
}

// localize is Localize tagged with the service-mode tenant and app that
// triggered it (both empty for ad-hoc calls); the tags flow into the
// history record and the journal event.
func (m *Master) localize(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
	var res core.LocalizeResult
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.localizeTO)
		defer cancel()
	}

	// Admission first: under overload the request waits in the LIFO queue
	// (bounded by its own deadline) or is shed before any fan-out happens.
	if err := m.admit.acquire(ctx); err != nil {
		res.Overloaded = true
		m.obs.Registry().CounterWith("fchain_localize_total", "Localize calls by outcome.",
			map[string]string{"outcome": "shed"}).Inc()
		m.obs.Logger().Warn("localize shed by admission control", "tv", tv, "err", err)
		_ = m.obs.EventJournal().Record("localize_shed", map[string]any{"tv": tv})
		if errors.Is(err, ErrOverloaded) {
			// Retry-After hint: each request already queued ahead is one
			// quantum of delay; the hint never exceeds the localize deadline
			// (waiting longer than one full cycle is never necessary).
			hint := m.admit.retryAfterHint(m.localizeTO)
			res.RetryAfterMS = hint.Milliseconds()
			return res, &OverloadedError{RetryAfter: hint}
		}
		return res, err
	}
	defer m.admit.release()

	tr := obs.NewTrace("localize", tv)
	root := tr.Start(-1, "localize")
	m.mu.Lock()
	if len(m.slaves) == 0 {
		m.mu.Unlock()
		m.obs.Registry().CounterWith("fchain_localize_total", "Localize calls by outcome.",
			map[string]string{"outcome": "no_slaves"}).Inc()
		return res, ErrNoSlaves
	}
	conns := make([]*slaveConn, 0, len(m.slaves))
	for _, sc := range m.slaves {
		conns = append(conns, sc)
	}
	aggConns := make(map[string]*slaveConn, len(m.aggs))
	for name, sc := range m.aggs {
		aggConns[name] = sc
	}
	// The application's size counts every component ever registered: a
	// slave that died does not shrink the application, and the
	// external-factor check must not misread a partial view as "all
	// components abnormal".
	res.SlavesTotal = len(conns)
	res.ComponentsKnown = len(m.known)
	knownComps := make([]string, 0, len(m.known))
	for comp := range m.known {
		knownComps = append(knownComps, comp)
	}
	// Sharded mode: the placement at snapshot time decides which slave's
	// report counts for each component. A component mid-rebalance can be
	// reported by both its old and new owner for one window; filtering on
	// the owner map keeps exactly one report per component.
	var ownerOf map[string]string
	if m.sharded() && len(m.owner) > 0 {
		ownerOf = make(map[string]string, len(m.owner))
		for comp, own := range m.owner {
			ownerOf[comp] = own
		}
	}
	m.mu.Unlock()
	sort.Strings(knownComps)
	tr.AttrInt(root, "slaves", int64(res.SlavesTotal))
	tr.AttrInt(root, "components", int64(res.ComponentsKnown))

	deadline, _ := ctx.Deadline()
	attempts := m.retries + 1
	perAttempt := time.Until(deadline) / time.Duration(attempts)
	if perAttempt <= 0 {
		return res, context.DeadlineExceeded
	}

	lookBack := m.cfg.LookBack
	if lookBack <= 0 {
		lookBack = core.DefaultConfig().LookBack
	}
	// Group the fan-out into subtree units: slaves registered via a live
	// aggregator are asked through it (one analyze frame per subtree, the
	// aggregator answers with per-slave sub-entries); everything else — and
	// every member of a subtree whose aggregator fails mid-localization —
	// is asked over its always-present direct connection.
	answers := make(chan slaveAnswer, len(conns))
	var direct []*slaveConn
	units := make(map[*slaveConn][]*slaveConn)
	for _, sc := range conns {
		if sc.via != "" {
			if agg := aggConns[sc.via]; agg != nil && !agg.isDead() {
				units[agg] = append(units[agg], sc)
				continue
			}
		}
		direct = append(direct, sc)
	}
	for _, sc := range direct {
		sc := sc
		go m.askDirect(ctx, sc, tv, lookBack, attempts, perAttempt, answers)
	}
	for agg, members := range units {
		agg, members := agg, members
		go m.askSubtree(ctx, agg, members, tv, lookBack, attempts, perAttempt, answers)
	}
	// The request fans out to every slave at once, so the pool width is the
	// slave count; the select histogram records each slave's answer latency
	// (its remote selection work plus the wire).
	res.Stats.Workers = len(conns)
	res.Stats.Tasks = len(conns)

	// Collect answers until every slave responded, the quorum is met, or the
	// deadline expires. Meeting the quorum does not exit on a hair trigger:
	// the slowest healthy answer is routinely the faulty component's (an
	// abnormal series yields more change-point candidates, so its selection
	// costs the most), and dropping it on every healthy run would defeat the
	// diagnosis. Stragglers get a bounded grace after quorum; only what is
	// still missing when it lapses is charged to coverage.
	need := 0
	if m.quorum > 0 {
		need = int(math.Ceil(m.quorum * float64(len(conns))))
		if need < 1 {
			need = 1
		}
		if need > len(conns) {
			need = len(conns)
		}
	}
	collected := make([]slaveAnswer, 0, len(conns))
	answered := 0
collect:
	for len(collected) < len(conns) {
		var a slaveAnswer
		select {
		case a = <-answers:
		case <-ctx.Done():
			break collect
		}
		collected = append(collected, a)
		if a.err == nil {
			answered++
		}
		if need > 0 && answered >= need {
			grace := quorumGraceCap
			if dl, ok := ctx.Deadline(); ok {
				if rem := time.Until(dl) / 4; rem < grace {
					grace = rem
				}
			}
			if grace <= 0 {
				break collect
			}
			timer := time.NewTimer(grace)
			for len(collected) < len(conns) {
				select {
				case a := <-answers:
					collected = append(collected, a)
					if a.err == nil {
						answered++
					}
				case <-timer.C:
					break collect
				case <-ctx.Done():
					timer.Stop()
					break collect
				}
			}
			timer.Stop()
			break collect
		}
	}
	// Slaves whose answers never arrived get a deterministic error entry so
	// the result (and its trace) does not depend on goroutine timing.
	got := make(map[string]bool, len(collected))
	for _, a := range collected {
		got[a.slave] = true
	}
	for _, sc := range conns {
		if !got[sc.name] {
			collected = append(collected, slaveAnswer{slave: sc.name, err: fmt.Errorf("cluster: slave %s: deadline exceeded", sc.name)})
		}
	}
	// Sort by slave name: fan-out answers arrive in racy order, and the ask
	// spans below must be deterministic for trace-normalized goldens.
	sort.Slice(collected, func(i, j int) bool { return collected[i].slave < collected[j].slave })

	var reports []core.ComponentReport
	seen := make(map[string]bool)
	for _, a := range collected {
		res.Retries += a.retries
		ask := tr.Start(root, "ask:"+a.slave)
		tr.AttrInt(ask, "retries", int64(a.retries))
		if a.via != "" {
			tr.Attr(ask, "via", a.via)
		}
		if a.err != nil {
			tr.Attr(ask, "error", a.err.Error())
			tr.End(ask)
			m.obs.Logger().Warn("slave analyze failed", "slave", a.slave, "err", a.err)
			res.Errors = append(res.Errors, a.err.Error())
			continue
		}
		tr.AttrInt(ask, "reports", int64(len(a.reports)))
		tr.End(ask)
		res.SlavesAnswered++
		res.Stats.Select.Observe(a.waitNS)
		m.obs.Registry().Histogram("fchain_slave_answer_latency_ns",
			"Per-slave analyze answer latency (remote selection plus the wire).").Observe(a.waitNS)
		// Clock-offset normalization: the slave echoed which clock its
		// onsets are in. The propagation chain orders components by onset
		// across slaves, so per-slave offsets must be removed before
		// diagnosis or a skewed slave's component shifts within the chain.
		offset := int64(0)
		if a.usedTV != 0 {
			offset = a.usedTV - tv
		}
		if offset != 0 {
			if res.ClockOffsets == nil {
				res.ClockOffsets = make(map[string]int64)
			}
			res.ClockOffsets[a.slave] = offset
		}
		for _, rep := range a.reports {
			if own, placed := ownerOf[rep.Component]; placed && own != a.slave {
				continue // stale owner mid-rebalance; the current owner's report counts
			}
			seen[rep.Component] = true
			if offset != 0 {
				rep.Onset -= offset
				for i := range rep.Changes {
					rep.Changes[i].Onset -= offset
					rep.Changes[i].ChangeAt -= offset
				}
			}
			if rep.Quality != (core.DataQuality{}) {
				if res.Quality == nil {
					res.Quality = make(map[string]core.DataQuality)
				}
				res.Quality[rep.Component] = rep.Quality
			}
			if rep.Truncated {
				res.Truncated = true
			}
			if len(rep.Quarantined) > 0 {
				if res.Quarantined == nil {
					res.Quarantined = make(map[string][]string)
				}
				res.Quarantined[rep.Component] = rep.Quarantined
			}
			reports = append(reports, rep)
		}
	}
	res.ComponentsReported = len(seen)
	res.Degraded = res.SlavesAnswered < res.SlavesTotal || res.ComponentsReported < res.ComponentsKnown
	for _, comp := range knownComps {
		if !seen[comp] {
			res.MissingComponents = append(res.MissingComponents, comp)
		}
	}
	if need > 0 && res.SlavesAnswered < need {
		m.obs.Registry().CounterWith("fchain_localize_total", "Localize calls by outcome.",
			map[string]string{"outcome": "quorum"}).Inc()
		m.obs.Logger().Error("localize refused: quorum not met", "tv", tv,
			"answered", res.SlavesAnswered, "need", need, "total", res.SlavesTotal)
		_ = m.obs.EventJournal().Record("localize_quorum_not_met", map[string]any{
			"tv": tv, "answered": res.SlavesAnswered, "need": need, "total": res.SlavesTotal})
		return res, fmt.Errorf("%w: %d/%d slaves answered, need %d",
			ErrQuorumNotMet, res.SlavesAnswered, res.SlavesTotal, need)
	}
	if len(reports) == 0 && len(res.Errors) > 0 {
		m.obs.Registry().CounterWith("fchain_localize_total", "Localize calls by outcome.",
			map[string]string{"outcome": "error"}).Inc()
		m.obs.Logger().Error("localize failed: no slave answered", "tv", tv, "first_err", res.Errors[0])
		_ = m.obs.EventJournal().Record("localize_failed", map[string]any{"tv": tv, "errors": res.Errors})
		return res, fmt.Errorf("cluster: all slaves failed: %s", res.Errors[0])
	}
	dg := tr.Start(root, "diagnose")
	diagStart := time.Now()
	res.Diagnosis = core.Diagnose(reports, res.ComponentsKnown, m.deps, m.cfg)
	res.Stats.Diagnose.Observe(time.Since(diagStart).Nanoseconds())
	tr.AttrInt(dg, "chain", int64(len(res.Diagnosis.Chain)))
	tr.Attr(dg, "culprits", strings.Join(res.Diagnosis.CulpritNames(), ","))
	tr.AttrBool(dg, "external", res.Diagnosis.ExternalFactor)
	tr.End(dg)
	tr.Attr(root, "verdict", res.Diagnosis.String())
	tr.AttrBool(root, "degraded", res.Degraded)
	if res.Truncated {
		tr.AttrBool(root, "truncated", true)
	}
	tr.End(root)
	res.Trace = tr
	m.obs.TraceRing().Add(tr)
	m.instrumentLocalize(tv, tenantName, app, &res)
	m.mu.Lock()
	m.history = append(m.history, DiagnosisRecord{TV: tv, Tenant: tenantName, App: app, Diagnosis: res.Diagnosis, Degraded: res.Degraded})
	if len(m.history) > historyLimit {
		m.history = m.history[len(m.history)-historyLimit:]
	}
	m.mu.Unlock()
	return res, nil
}

// instrumentLocalize records one completed localization in the sink's
// metrics, journal, and log (all no-ops without a sink).
func (m *Master) instrumentLocalize(tv int64, tenantName, app string, res *core.LocalizeResult) {
	if m.obs == nil {
		return
	}
	reg := m.obs.Registry()
	reg.CounterWith("fchain_localize_total", "Localize calls by outcome.",
		map[string]string{"outcome": "ok"}).Inc()
	reg.Counter("fchain_diagnose_total", "Integrated diagnosis passes.").Inc()
	if res.Degraded {
		reg.Counter("fchain_localize_degraded_total", "Localizations over a partial view.").Inc()
	}
	sel := res.Stats.Select
	reg.Histogram("fchain_selection_latency_ns", "Abnormal change point selection latency.").
		MergeLog2(sel.Buckets[:], sel.Count, sel.SumNS, sel.MaxNS)
	diag := res.Stats.Diagnose
	reg.Histogram("fchain_diagnose_latency_ns", "Integrated diagnosis latency.").
		MergeLog2(diag.Buckets[:], diag.Count, diag.SumNS, diag.MaxNS)
	m.obs.Logger().Info("localize complete",
		"tv", tv,
		"verdict", res.Diagnosis.String(),
		"slaves", fmt.Sprintf("%d/%d", res.SlavesAnswered, res.SlavesTotal),
		"degraded", res.Degraded)
	ev := map[string]any{
		"tv":        tv,
		"culprits":  res.Diagnosis.CulpritNames(),
		"external":  res.Diagnosis.ExternalFactor,
		"chain_len": len(res.Diagnosis.Chain),
		"slaves":    res.SlavesAnswered,
		"degraded":  res.Degraded,
	}
	if tenantName != "" {
		ev["tenant"] = tenantName
		ev["app"] = app
	}
	_ = m.obs.EventJournal().Record("localize", ev)
}

// slaveAnswer is one slave's outcome inside a Localize fan-out, whether it
// arrived directly or through an aggregator (via names the aggregator then).
// Exactly one slaveAnswer per registered slave reaches the collect loop.
type slaveAnswer struct {
	slave   string
	via     string
	reports []core.ComponentReport
	usedTV  int64
	retries int
	waitNS  int64
	err     error
}

// askDirect runs one slave's direct ask — in-flight cap, circuit breaker,
// retries — and delivers exactly one slaveAnswer.
func (m *Master) askDirect(ctx context.Context, sc *slaveConn, tv int64, lookBack, attempts int, perAttempt time.Duration, answers chan<- slaveAnswer) {
	// The per-slave in-flight cap fails fast rather than queueing:
	// a slave already saturated by overlapping Localize calls would
	// only answer after this call's budget is gone anyway.
	if !sc.acquireSlot(m.slaveInflight) {
		answers <- slaveAnswer{slave: sc.name, err: fmt.Errorf("cluster: slave %s at in-flight cap", sc.name)}
		return
	}
	defer sc.releaseSlot(m.slaveInflight)
	if m.brThreshold > 0 && sc.breakerOpen(m.brCooldown) {
		answers <- slaveAnswer{slave: sc.name, err: fmt.Errorf("cluster: circuit open for slave %s", sc.name)}
		return
	}
	start := time.Now()
	a := m.askSlave(ctx, sc, tv, lookBack, attempts, perAttempt, nil)
	sc.recordResult(a.err == nil, m.brThreshold)
	answers <- slaveAnswer{slave: sc.name, reports: a.reports, usedTV: a.usedTV, retries: a.retries, waitNS: time.Since(start).Nanoseconds(), err: a.err}
}

// askSubtree asks one aggregator for its whole subtree and fans the merged
// answer back out into per-slave answers. Any member the aggregator could
// not cover — including every member when the aggregator itself dies
// mid-localization — falls back to a direct ask on the member's own
// connection, so a dead aggregator degrades the tree to the flat topology
// instead of blinding a whole subtree.
func (m *Master) askSubtree(ctx context.Context, agg *slaveConn, members []*slaveConn, tv int64, lookBack, attempts int, perAttempt time.Duration, answers chan<- slaveAnswer) {
	names := make([]string, len(members))
	for i, sc := range members {
		names[i] = sc.name
	}
	sort.Strings(names)
	start := time.Now()
	a := m.askSlave(ctx, agg, tv, lookBack, attempts, perAttempt, names)
	agg.recordResult(a.err == nil, m.brThreshold)
	elapsed := time.Since(start).Nanoseconds()
	covered := make(map[string]subAnswer, len(a.sub))
	if a.err == nil {
		for _, s := range a.sub {
			if s.Err == "" {
				covered[s.Slave] = s
			}
		}
	}
	for _, sc := range members {
		s, ok := covered[sc.name]
		if !ok {
			// Fallback budget: whatever remains of the deadline, one shot.
			go m.askDirect(ctx, sc, tv, lookBack, 1, perAttempt, answers)
			m.obs.Registry().Counter("fchain_aggregator_fallbacks_total",
				"Subtree members re-asked directly after an aggregator failure.").Inc()
			continue
		}
		wait := s.WaitNS
		if wait <= 0 {
			wait = elapsed
		}
		answers <- slaveAnswer{slave: sc.name, via: agg.name, reports: s.Reports, usedTV: s.UsedTV, retries: a.retries, waitNS: wait}
	}
}

// askResult is one peer's analyze outcome after retries.
type askResult struct {
	reports []core.ComponentReport
	sub     []subAnswer // aggregator answers: one entry per subtree slave
	usedTV  int64       // tv in the slave's clock, 0 when the slave did not echo it
	retries int
	err     error
}

// askSlave sends the analyze request and waits for the reports, retrying
// with a fresh request ID on timeout or error until the attempt budget or
// the context runs out. A dead connection stops retrying immediately. A
// non-nil subtree turns the request into an aggregator ask covering those
// slave names.
func (m *Master) askSlave(ctx context.Context, sc *slaveConn, tv int64, lookBack, attempts int, perAttempt time.Duration, subtree []string) askResult {
	var lastErr error
	used := 0
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && (sc.isDead() || ctx.Err() != nil) {
			break
		}
		used = attempt
		// Each attempt's wait is its share of the deadline, clamped to the
		// budget actually left on the context; the slave receives that wait
		// as its analysis budget (BudgetMS) so remote selection degrades
		// instead of overshooting the master's patience.
		wait := perAttempt
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem < wait {
				wait = rem
			}
		}
		if wait <= 0 {
			return askResult{retries: attempt, err: fmt.Errorf("cluster: slave %s: %w", sc.name, context.DeadlineExceeded)}
		}
		budgetMS := wait.Milliseconds()
		if budgetMS < 1 {
			budgetMS = 1 // omitempty would drop 0, reading as "no deadline"
		}
		id := m.reqCounter.Add(1)
		ch := make(chan *envelope, 1)
		if !sc.addPending(id, ch) {
			lastErr = fmt.Errorf("cluster: slave %s disconnected", sc.name)
			break
		}
		req := &envelope{Type: typeAnalyze, ID: id, TV: tv, LookBack: lookBack, BudgetMS: budgetMS, Subtree: subtree}
		if err := sc.w.write(req, wait); err != nil {
			sc.removePending(id)
			lastErr = err
			continue
		}
		select {
		case env := <-ch:
			if env.Type == typeError {
				lastErr = errors.New(env.Err)
				if env.Code == codeOverloaded {
					m.obs.Registry().Counter("fchain_slave_overloaded_total",
						"Analyze requests shed by slave admission control.").Inc()
				}
				continue
			}
			return askResult{reports: env.Reports, sub: env.Sub, usedTV: env.UsedTV, retries: attempt}
		case <-time.After(wait):
			sc.removePending(id)
			lastErr = fmt.Errorf("cluster: slave %s timed out", sc.name)
		case <-ctx.Done():
			sc.removePending(id)
			return askResult{retries: attempt, err: fmt.Errorf("cluster: slave %s: %w", sc.name, ctx.Err())}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: slave %s unavailable", sc.name)
	}
	return askResult{retries: used, err: lastErr}
}

// Close shuts the master down and waits for its goroutines.
func (m *Master) Close() error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.stop)
	}
	for _, sc := range m.slaves {
		_ = sc.w.conn.Close()
	}
	for _, sc := range m.aggs {
		_ = sc.w.conn.Close()
	}
	m.mu.Unlock()
	var err error
	if m.ln != nil {
		err = m.ln.Close()
	}
	m.wg.Wait()
	return err
}
