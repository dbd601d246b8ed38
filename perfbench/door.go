package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"firmament/internal/api"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/service"
	"firmament/internal/wal"
)

// frontDoor is the surface a workload drives: the in-process service or the
// HTTP API client in front of a durable service. Every call is a span in the
// traced run.
type frontDoor interface {
	submit(class cluster.JobClass, prio int, specs []cluster.TaskSpec) (cluster.JobID, []cluster.TaskID, error)
	complete(ids []cluster.TaskID) error
	removeMachine(m cluster.MachineID) error
	restoreMachine(m cluster.MachineID) error
	stats() (api.Stats, error)
	// watch subscribes to placements; stop ends the subscription and err
	// reports, once the channel has closed, why it ended.
	watch() (ch <-chan service.Placement, stop func(), err func() error, e error)
	close() error
}

// system is one freshly built scheduler behind its front door, with the
// timing wrappers the traced run installs.
type system struct {
	svc   *service.Service
	door  frontDoor
	model *timedModel        // nil when untraced
	fs    *timedFS           // nil when untraced or not durable
	ct    *countingTransport // nil when untraced or not HTTP
}

// serviceConfig is the serving configuration every workload uses: the
// library defaults with the template fast path on.
var serviceConfig = service.Config{Templates: true}

// buildSystem builds the scheduler a workload runs against: in-process, or
// durable behind the HTTP API on a loopback port with its journal in dir.
func buildSystem(w *workload, tr *tracer, dir string) (*system, error) {
	sys := &system{}
	model := func(cl *cluster.Cluster) policy.CostModel {
		var m policy.CostModel = policy.NewLoadSpread(cl)
		if tr != nil {
			m, sys.model = wrapModel(m, tr)
		}
		return m
	}
	if !w.http {
		cl := cluster.New(w.topo)
		sys.svc = service.New(cl, model(cl), core.DefaultConfig(), serviceConfig)
		sys.door = &inProcDoor{svc: sys.svc, tr: tr}
		return sys, nil
	}
	dur := service.DurabilityConfig{Dir: dir, Sync: wal.SyncBatch, SnapshotEvery: snapshotEvery}
	if tr != nil {
		sys.fs = newTimedFS(wal.OSFS, tr)
		dur.FS = sys.fs
	}
	svc, _, err := service.Open(service.Options{
		Topology: w.topo, Model: model, Scheduler: core.DefaultConfig(),
		Service: serviceConfig, Durability: dur,
	})
	if err != nil {
		return nil, fmt.Errorf("open durable service: %w", err)
	}
	sys.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	srv := &http.Server{Handler: api.NewServer(svc)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	// One connection for requests plus one for the watch stream.
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	if tr != nil {
		sys.ct = &countingTransport{inner: rt, tr: tr}
		rt = sys.ct
	}
	cli := api.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	sys.door = &httpDoor{cli: cli, srv: srv, served: served, svc: svc, dir: dir, tr: tr}
	return sys, nil
}

// inProcDoor calls the service directly.
type inProcDoor struct {
	svc *service.Service
	tr  *tracer
}

func (d *inProcDoor) submit(class cluster.JobClass, prio int, specs []cluster.TaskSpec) (cluster.JobID, []cluster.TaskID, error) {
	id, start := d.tr.begin()
	job, err := d.svc.Submit(class, prio, specs)
	if err != nil {
		d.tr.end(id, 0, -1, "service.Submit", start)
		return 0, nil, err
	}
	d.tr.end(id, 0, int64(job.ID), "service.Submit", start)
	return job.ID, job.Tasks, nil
}

func (d *inProcDoor) complete(ids []cluster.TaskID) error {
	for _, t := range ids {
		var err error
		d.tr.call("service.Complete", 0, int64(cluster.JobOfTask(t)), func() { err = d.svc.Complete(t) })
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *inProcDoor) removeMachine(m cluster.MachineID) (err error) {
	d.tr.call("service.RemoveMachine", 0, -1, func() { err = d.svc.RemoveMachine(m) })
	return err
}

func (d *inProcDoor) restoreMachine(m cluster.MachineID) (err error) {
	d.tr.call("service.RestoreMachine", 0, -1, func() { err = d.svc.RestoreMachine(m) })
	return err
}

func (d *inProcDoor) stats() (st api.Stats, err error) {
	d.tr.call("service.Stats", 0, -1, func() { st = api.StatsFromService(d.svc.Stats()) })
	return st, nil
}

func (d *inProcDoor) watch() (<-chan service.Placement, func(), func() error, error) {
	ch, stop := d.svc.Watch()
	return ch, stop, func() error { return nil }, nil
}

func (d *inProcDoor) close() error { return d.svc.Close() }

// httpDoor drives the API client over loopback. One goroutine issues its
// requests, so the counting transport parents round trips on tracer.cur.
type httpDoor struct {
	cli    *api.Client
	srv    *http.Server
	served chan struct{}
	svc    *service.Service
	dir    string
	tr     *tracer
}

// traced runs fn as the request goroutine's open span.
func (d *httpDoor) traced(name string, trace func() int64, fn func()) {
	if d.tr == nil {
		fn()
		return
	}
	id, start := d.tr.begin()
	d.tr.cur.Store(id)
	fn()
	d.tr.cur.Store(0)
	d.tr.end(id, 0, trace(), name, start)
}

func noTrace() int64 { return -1 }

func (d *httpDoor) submit(class cluster.JobClass, prio int, specs []cluster.TaskSpec) (cluster.JobID, []cluster.TaskID, error) {
	var job *api.Job
	var err error
	d.traced("api.Submit", func() int64 {
		if job == nil {
			return -1
		}
		return int64(job.ID)
	}, func() { job, err = d.cli.Submit(class, prio, specs) })
	if err != nil {
		return 0, nil, err
	}
	return job.ID, job.Tasks, nil
}

func (d *httpDoor) complete(ids []cluster.TaskID) (err error) {
	d.traced("api.CompleteBatch", noTrace, func() { err = d.cli.CompleteBatch(ids) })
	return err
}

func (d *httpDoor) removeMachine(m cluster.MachineID) (err error) {
	d.traced("api.RemoveMachine", noTrace, func() { err = d.cli.RemoveMachine(m) })
	return err
}

func (d *httpDoor) restoreMachine(m cluster.MachineID) (err error) {
	d.traced("api.RestoreMachine", noTrace, func() { err = d.cli.RestoreMachine(m) })
	return err
}

func (d *httpDoor) stats() (st api.Stats, err error) {
	d.traced("api.Stats", noTrace, func() { st, err = d.cli.Stats() })
	return st, err
}

func (d *httpDoor) watch() (<-chan service.Placement, func(), func() error, error) {
	var ws *api.WatchStream
	var err error
	d.traced("api.Watch", noTrace, func() { ws, err = d.cli.Watch(context.Background()) })
	if err != nil {
		return nil, nil, nil, err
	}
	return ws.C, ws.Cancel, ws.Err, nil
}

// close stops the HTTP server, then the service (which cuts its final
// snapshot), and removes the journal directory.
func (d *httpDoor) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.served
	if cerr := d.svc.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}
