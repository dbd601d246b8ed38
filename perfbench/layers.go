package main

// Timing wrappers for the seams the program already exposes: the cost
// model the benchmark hands to the scheduler, the filesystem it hands to
// the journal, and the HTTP transport it hands to the API client. They are
// installed only in the traced run.

import (
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/policy"
	"firmament/internal/template"
	"firmament/internal/wal"
)

// timedModel decorates a policy.CostModel, timing every call.
type timedModel struct {
	inner  policy.CostModel
	tr     *tracer
	calls  atomic.Int64
	ns     atomic.Int64
	rounds atomic.Int64 // BeginRound calls
}

// timedSignerModel is timedModel for a policy that opts into templates: the
// decorator must keep forwarding template.Signer, or the service would
// silently run with the template fast path off.
type timedSignerModel struct {
	*timedModel
	signer template.Signer
}

func (m timedSignerModel) TemplateSignature() uint64 { return m.signer.TemplateSignature() }

// wrapModel returns the decorated model and its counters.
func wrapModel(inner policy.CostModel, tr *tracer) (policy.CostModel, *timedModel) {
	tm := &timedModel{inner: inner, tr: tr}
	if s, ok := inner.(template.Signer); ok {
		return timedSignerModel{timedModel: tm, signer: s}, tm
	}
	return tm, tm
}

func (m *timedModel) timed(name string, fn func()) {
	m.ns.Add(m.tr.call(name, 0, -1, fn))
	m.calls.Add(1)
}

func (m *timedModel) Name() string { return m.inner.Name() }

func (m *timedModel) BeginRound(now time.Duration) {
	m.rounds.Add(1)
	m.timed("policy.BeginRound", func() { m.inner.BeginRound(now) })
}

func (m *timedModel) UnscheduledCost(t *cluster.Task, now time.Duration) (c policy.Cost) {
	m.timed("policy.UnscheduledCost", func() { c = m.inner.UnscheduledCost(t, now) })
	return c
}

func (m *timedModel) TaskArcs(t *cluster.Task, now time.Duration) (arcs []policy.TaskArc) {
	m.timed("policy.TaskArcs", func() { arcs = m.inner.TaskArcs(t, now) })
	return arcs
}

func (m *timedModel) Aggregators() (ids []policy.AggID) {
	m.timed("policy.Aggregators", func() { ids = m.inner.Aggregators() })
	return ids
}

func (m *timedModel) AggArcs(id policy.AggID, now time.Duration) (arcs []policy.MachineArc) {
	m.timed("policy.AggArcs", func() { arcs = m.inner.AggArcs(id, now) })
	return arcs
}

// walStats collects the journal's filesystem activity.
type walStats struct {
	mu         sync.Mutex
	writeUs    []float64 // journal segment writes
	writeBytes int64
	fsyncMs    []float64
	snapMs     []float64 // *.tmp create to rename
	snapBytes  []float64
	tmpOpened  map[string]time.Time
	tmpBytes   map[string]int64
}

// timedFS decorates a wal.FS, timing every call.
type timedFS struct {
	inner wal.FS
	tr    *tracer
	st    *walStats
}

func newTimedFS(inner wal.FS, tr *tracer) *timedFS {
	return &timedFS{inner: inner, tr: tr, st: &walStats{
		tmpOpened: make(map[string]time.Time), tmpBytes: make(map[string]int64)}}
}

func (fs *timedFS) OpenFile(name string, flag int, perm os.FileMode) (f wal.File, err error) {
	fs.tr.call("wal.OpenFile", 0, -1, func() { f, err = fs.inner.OpenFile(name, flag, perm) })
	if err != nil {
		return nil, err
	}
	tmp := strings.HasSuffix(name, ".tmp") && flag&os.O_CREATE != 0
	if tmp {
		fs.st.mu.Lock()
		fs.st.tmpOpened[name] = time.Now()
		fs.st.tmpBytes[name] = 0
		fs.st.mu.Unlock()
	}
	return &timedFile{File: f, fs: fs, name: name, tmp: tmp}, nil
}

func (fs *timedFS) MkdirAll(path string, perm os.FileMode) (err error) {
	fs.tr.call("wal.MkdirAll", 0, -1, func() { err = fs.inner.MkdirAll(path, perm) })
	return err
}

func (fs *timedFS) ReadDir(name string) (ents []os.DirEntry, err error) {
	fs.tr.call("wal.ReadDir", 0, -1, func() { ents, err = fs.inner.ReadDir(name) })
	return ents, err
}

func (fs *timedFS) Remove(name string) (err error) {
	fs.tr.call("wal.Remove", 0, -1, func() { err = fs.inner.Remove(name) })
	return err
}

func (fs *timedFS) Truncate(name string, size int64) (err error) {
	fs.tr.call("wal.Truncate", 0, -1, func() { err = fs.inner.Truncate(name, size) })
	return err
}

func (fs *timedFS) Rename(oldpath, newpath string) (err error) {
	fs.tr.call("wal.Rename", 0, -1, func() { err = fs.inner.Rename(oldpath, newpath) })
	if err == nil && strings.HasSuffix(oldpath, ".tmp") {
		fs.st.mu.Lock()
		if t0, ok := fs.st.tmpOpened[oldpath]; ok {
			fs.st.snapMs = append(fs.st.snapMs, float64(time.Since(t0))/1e6)
			fs.st.snapBytes = append(fs.st.snapBytes, float64(fs.st.tmpBytes[oldpath]))
			delete(fs.st.tmpOpened, oldpath)
			delete(fs.st.tmpBytes, oldpath)
		}
		fs.st.mu.Unlock()
	}
	return err
}

// timedFile times writes and fsyncs of one journal file.
type timedFile struct {
	wal.File
	fs   *timedFS
	name string
	tmp  bool // a snapshot (or probe) being written
}

func (f *timedFile) Write(p []byte) (n int, err error) {
	d := f.fs.tr.call("wal.Write", 0, -1, func() { n, err = f.File.Write(p) })
	st := f.fs.st
	st.mu.Lock()
	if f.tmp {
		st.tmpBytes[f.name] += int64(n)
	} else {
		st.writeUs = append(st.writeUs, float64(d)/1e3)
		st.writeBytes += int64(n)
	}
	st.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() (err error) {
	d := f.fs.tr.call("wal.Sync", 0, -1, func() { err = f.File.Sync() })
	f.fs.st.mu.Lock()
	f.fs.st.fsyncMs = append(f.fs.st.fsyncMs, float64(d)/1e6)
	f.fs.st.mu.Unlock()
	return err
}

// countingTransport counts the requests and body bytes the API client
// exchanges, watch stream included.
type countingTransport struct {
	inner    http.RoundTripper
	tr       *tracer
	requests atomic.Int64
	bytes    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	id, start := c.tr.begin()
	resp, err := c.inner.RoundTrip(req)
	c.tr.end(id, c.tr.cur.Load(), -1, "http.RoundTrip", start)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
