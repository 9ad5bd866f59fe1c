package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fchain/internal/cluster"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// benchTenant is the single tenant the load generator violates as.
const benchTenant = "bench"

// replInterval is the warm-standby replication tick on sharded fleets.
const replInterval = 100 * time.Millisecond

// fleet is one in-process cluster: a master with the violation service
// attached, its slaves, and one service client, all talking over loopback
// TCP.
type fleet struct {
	in      *inputs
	master  *cluster.Master
	client  *cluster.ServiceClient
	sink    *obs.Sink
	journal *obs.Journal
	slaves  []*cluster.Slave
	// slaveTraces holds each slave's analyze-trace ring (traced runs only).
	slaveTraces []*obs.TraceRing
	// owner[i] is the slave that monitors component i.
	owner []*cluster.Slave
	// fedTo is the last tick fed to every series.
	fedTo int64
}

// startFleet starts the master, the service and the slaves, registers and
// places every component, and returns once the cluster can take samples.
// With traced set, every slave records its analyze trace in a ring the
// benchmark reads back after each verdict.
func startFleet(in *inputs, dir string, traced bool) (*fleet, error) {
	journal, err := obs.OpenJournal(filepath.Join(dir, "service.journal"))
	if err != nil {
		return nil, err
	}
	f := &fleet{in: in, journal: journal, fedTo: -1}
	f.sink = &obs.Sink{
		Metrics: obs.NewRegistry(),
		Traces:  obs.NewTraceRing(4),
		Journal: journal,
	}
	opts := []cluster.MasterOption{cluster.WithMasterObs(f.sink)}
	if in.sharded {
		opts = append(opts, cluster.WithSharding(0), cluster.WithAutoRebalance(false), cluster.WithStandby(true))
	}
	f.master = cluster.NewMaster(in.cfg, in.deps, opts...)
	if err := f.master.Start("127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	// The service attaches itself to the master, which routes violations
	// arriving on its listener to it.
	cluster.NewService(f.master, cluster.ServiceConfig{Tenants: []string{benchTenant}})

	byName := make(map[string]*cluster.Slave, in.slaves)
	per := (len(in.comps) + in.slaves - 1) / in.slaves
	for s := 0; s < in.slaves; s++ {
		name := fmt.Sprintf("slave-%d", s)
		var comps []string
		var sopts []cluster.SlaveOption
		if in.sharded {
			sopts = append(sopts, cluster.WithReplication(replInterval))
		} else {
			lo, hi := s*per, (s+1)*per
			if hi > len(in.comps) {
				hi = len(in.comps)
			}
			comps = in.comps[lo:hi]
		}
		if traced {
			ring := obs.NewTraceRing(2)
			f.slaveTraces = append(f.slaveTraces, ring)
			sopts = append(sopts, cluster.WithSlaveObs(&obs.Sink{Traces: ring}))
		}
		sl := cluster.NewSlave(name, comps, in.cfg, sopts...)
		f.slaves = append(f.slaves, sl)
		byName[name] = sl
		if err := sl.Connect(f.master.Addr()); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := waitUntil(10*time.Second, func() bool { return len(f.master.Slaves()) == in.slaves }); err != nil {
		f.close()
		return nil, fmt.Errorf("slaves never registered: %w", err)
	}
	f.owner = make([]*cluster.Slave, len(in.comps))
	if in.sharded {
		f.master.RegisterComponents(in.comps...)
		if _, err := f.master.Rebalance(); err != nil {
			f.close()
			return nil, err
		}
		for i, comp := range in.comps {
			name, ok := f.master.Owner(comp)
			if !ok || byName[name] == nil {
				f.close()
				return nil, fmt.Errorf("component %s not placed", comp)
			}
			f.owner[i] = byName[name]
		}
	} else {
		for i := range in.comps {
			f.owner[i] = f.slaves[i/per]
		}
	}
	f.client, err = cluster.DialService(f.master.Addr())
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// feedBacklog drains every series' history up to the backlog end, one series
// after another, as a slave drains a collector's CSV backlog.
func (f *fleet) feedBacklog() error {
	in := f.in
	for _, i := range in.feedOrder() {
		comp, sl := in.comps[i], f.owner[i]
		for k, kind := range metric.Kinds {
			for t := in.backlogStart; t <= in.backlogEnd; t++ {
				if err := sl.Ingest(comp, t, kind, in.value(i, k, t)); err != nil {
					return fmt.Errorf("backlog of %s: %w", comp, err)
				}
			}
		}
	}
	f.fedTo = in.backlogEnd
	return nil
}

// feedLive feeds ticks (fedTo, to] in time order, every component's every
// metric per tick, as live collectors deliver them. It returns the number of
// samples fed.
func (f *fleet) feedLive(to int64) (int, error) {
	in := f.in
	order := in.feedOrder()
	n := 0
	for t := f.fedTo + 1; t <= to; t++ {
		for _, i := range order {
			comp, sl := in.comps[i], f.owner[i]
			for k, kind := range metric.Kinds {
				if err := sl.Ingest(comp, t, kind, in.value(i, k, t)); err != nil {
					return n, fmt.Errorf("live sample of %s at t=%d: %w", comp, t, err)
				}
				n++
			}
		}
	}
	if to > f.fedTo {
		f.fedTo = to
	}
	return n, nil
}

// caughtUp waits until every component's standby has acked all replication
// frames (a no-op without standbys).
func (f *fleet) caughtUp(timeout time.Duration) error {
	if !f.in.sharded {
		return nil
	}
	return waitUntil(timeout, func() bool {
		for _, comp := range f.in.comps {
			if !f.master.StandbyCaughtUp(comp) {
				return false
			}
		}
		return true
	})
}

// violate sends one violation over the service connection and waits for the
// verdict.
func (f *fleet) violate(v violation) (*cluster.Verdict, error) {
	app := v.App
	if app == "" {
		app = f.in.workload
	}
	return f.client.Violate(context.Background(), benchTenant, app, v.TV)
}

// counter reads one of the master's registry counters.
func (f *fleet) counter(name string) int64 {
	return f.sink.Metrics.Counter(name, "").Value()
}

// close stops the client, the slaves and the master, and waits for them.
func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	for _, sl := range f.slaves {
		sl.Close()
	}
	if f.master != nil {
		f.master.Close()
	}
	if f.journal != nil {
		f.journal.Close()
		// The journal only backs the service's write-ahead path; a leftover
		// is overwritten by the next run.
		_ = os.Remove(f.journal.Path())
	}
}

// waitUntil polls cond until it holds or timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
