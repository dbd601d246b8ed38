// Package template implements placement templates: a fingerprint-keyed
// fast path that caches solver decisions for recurring jobs, in the spirit
// of Execution Templates (Mashayekhi et al.) — the control plane caches an
// expensive decision once and thereafter validates and patches it instead
// of re-deriving it. Production scheduler traffic is overwhelmingly
// recurring: the same job shape arrives against the same slot-availability
// profile millions of times, yet every submission normally pays a full (or
// incremental) MCMF round.
//
// A template records, for one job, the per-task (machine, occupancy-level)
// assignment an optimal solve produced, keyed by a fingerprint of
// everything the cost model could see: the policy's own signature (its
// tunable parameters), the job's class, priority, wait-cost bucket and
// per-task workload specs, and the (running, slots) occupancy profile of
// every healthy machine, kept as a sorted run list. On a later submission
// with the same fingerprint, the cached assignment is re-validated in
// O(tasks) against live machine state and committed without touching the
// solver.
//
// # Equivalence contract
//
// The fast path is only sound for cost models whose optimum is a function
// of the fingerprinted state. A policy opts in by implementing Signer;
// LoadSpread qualifies because its arc costs depend only on machine
// occupancy levels (the k-th additional task on a machine costs
// k·CostPerTask regardless of which machine or which task), so any two
// states with equal occupancy multisets have equal optima, and a recorded
// assignment that re-validates level-for-level realizes exactly the
// recorded — optimal — total cost. Policies whose costs depend on state
// outside the fingerprint (data locality against a mutable storage layer,
// bandwidth reservations) must not implement Signer. See docs/templates.md.
package template

import (
	"cmp"
	"fmt"
	"slices"

	"firmament/internal/cluster"
	"firmament/internal/wal"
)

// Signer is implemented by cost models that opt into template caching. The
// signature must change whenever any cost-relevant parameter of the policy
// changes, and implementing it asserts the equivalence contract above: the
// policy's optimum placement cost is a pure function of the template
// fingerprint (job shape + healthy-machine occupancy profile).
type Signer interface {
	TemplateSignature() uint64
}

// Hash is a chainable FNV-1a-style 64-bit hash folding whole words.
type Hash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHash returns the hash seed.
func NewHash() Hash { return fnvOffset }

// U64 folds v into the hash.
func (h Hash) U64(v uint64) Hash { return (h ^ Hash(v)) * fnvPrime }

// I64 folds v into the hash.
func (h Hash) I64(v int64) Hash { return h.U64(uint64(v)) }

// Slot is one healthy machine's occupancy-profile entry.
type Slot struct {
	Running int32
	Slots   int32
}

// word packs the slot into the 64-bit word the fingerprint folds.
func (s Slot) word() uint64 { return uint64(uint32(s.Running))<<32 | uint64(uint32(s.Slots)) }

// key packs the slot into a word whose unsigned order is the canonical
// profile order, (Running, Slots) compared as signed integers.
func (s Slot) key() uint64 { return s.word() ^ (1<<63 | 1<<31) }

// Run is N healthy machines sharing one (running, slots) pair. A profile
// is a run list: runs in strictly increasing (Running, Slots) order, each
// with N >= 1 — the run-length form of the sorted per-machine profile. A
// homogeneous cluster of s-slot machines has at most s+1 runs whatever
// its size.
type Run struct {
	Slot
	N int32
}

func compareRuns(a, b Run) int { return cmp.Compare(a.key(), b.key()) }

// Canonicalize sorts runs by (Running, Slots) and merges runs with equal
// pairs, in place, returning the canonical run list. Callers that build a
// profile from per-machine state append one N=1 run per machine and
// canonicalize once, so a profile of M machines costs O(M log M).
//
//firmament:hotpath
func Canonicalize(runs []Run) []Run {
	slices.SortFunc(runs, compareRuns)
	out := runs[:0]
	for _, r := range runs {
		if n := len(out); n > 0 && out[n-1].Slot == r.Slot {
			out[n-1].N += r.N
			continue
		}
		out = append(out, r)
	}
	return out
}

// profileLen is the number of machines the profile covers.
//
//firmament:hotpath
func profileLen(profile []Run) int64 {
	n := int64(0)
	for _, r := range profile {
		n += int64(r.N)
	}
	return n
}

// foldProfile folds the expanded profile into h: its machine count, then
// each machine's slot word in sorted order. The value equals a fold over
// the per-machine sorted slice, so fingerprints do not depend on the run
// representation.
//
//firmament:hotpath
func foldProfile(h Hash, profile []Run) Hash {
	h = h.I64(profileLen(profile))
	for _, r := range profile {
		w := r.word()
		for i := int32(0); i < r.N; i++ {
			h = h.U64(w)
		}
	}
	return h
}

// Shape is the policy-visible shape of a candidate job: everything except
// the slot-availability profile that the fingerprint covers.
type Shape struct {
	// Sig is the policy's TemplateSignature.
	Sig uint64
	// Class and Priority are the job's scheduling class.
	Class    uint8
	Priority int64
	// Wait is the job's wait-cost bucket (policy.WaitCost of its queueing
	// delay) at admission time. Without it a template recorded for a
	// long-waiting job — whose high unscheduled cost justified expensive
	// placements — could wrongly hit a fresh job whose optimum leaves
	// tasks unscheduled.
	Wait int64
	// NTasks and Specs pin the task count and the hash of the per-task
	// workload specs (duration, input file/size, network demand).
	NTasks int32
	Specs  uint64
}

func (sh Shape) hash(h Hash) Hash {
	return h.U64(sh.Sig).U64(uint64(sh.Class)).I64(sh.Priority).
		I64(sh.Wait).I64(int64(sh.NTasks)).U64(sh.Specs)
}

// Fingerprint keys a (job shape, slot profile) pair. The profile must be
// a canonical run list (GatherProfile and Canonicalize produce one). The
// fingerprint is only a cache index: a lookup is confirmed by
// Template.Matches against the full stored shape and profile, so a 64-bit
// collision can cost a cache miss, never a wrong placement.
//
//firmament:hotpath
func Fingerprint(sh Shape, profile []Run) uint64 {
	return uint64(foldProfile(sh.hash(NewHash()), profile))
}

// JobShape computes the Shape of job as the admission path sees it; ok is
// false if any task record is missing (job completed concurrently).
//
//firmament:hotpath
func JobShape(cl *cluster.Cluster, job *cluster.Job, sig uint64, wait int64) (Shape, bool) {
	h := NewHash()
	for _, tid := range job.Tasks {
		t := cl.Task(tid)
		if t == nil {
			return Shape{}, false
		}
		h = h.I64(int64(t.Duration)).I64(t.InputFile).I64(t.InputSize).I64(t.NetDemand)
	}
	return Shape{
		Sig:      sig,
		Class:    uint8(job.Class),
		Priority: int64(job.Priority),
		Wait:     wait,
		NTasks:   int32(len(job.Tasks)),
		Specs:    uint64(h),
	}, true
}

// GatherProfile builds the run-list occupancy profile of every healthy
// machine in buf and returns it. Building it takes one entry of buf per
// healthy machine, so callers pass the previous result back in to reuse
// that scratch without allocating. The profile is a multiset: two cluster
// states that are occupancy-permutations of each other fingerprint
// identically, which is exactly the equivalence class a level-priced
// policy cannot distinguish.
//
//firmament:hotpath
func GatherProfile(cl *cluster.Cluster, buf []Run) []Run {
	buf = buf[:0]
	//firmament:ignore hotalloc non-escaping capture: cl.Machines is a leaf iterator, the closure stays on the stack (BenchmarkGatherProfile holds 0 allocs/op)
	cl.Machines(func(m *cluster.Machine) {
		if !m.Healthy() {
			return
		}
		buf = append(buf, Run{Slot: Slot{Running: int32(m.Running()), Slots: int32(m.Slots)}, N: 1})
	})
	return Canonicalize(buf)
}

// Assignment is one task's cached placement: the destination machine and
// the occupancy level the machine had when the task landed (the level the
// policy priced the placement at).
type Assignment struct {
	Machine cluster.MachineID
	Level   int32
}

// Template is one cached placement sub-structure: the exact shape and
// profile it was recorded under (Matches re-checks them — the fingerprint
// alone is never trusted) and the per-task assignment, indexed like the
// job's Tasks slice.
type Template struct {
	FP      uint64
	Shape   Shape
	Profile []Run
	Assign  []Assignment
}

// Matches reports whether the template was recorded under exactly this
// shape and profile. Canonical run lists are equal exactly when the
// expanded per-machine profiles are, so comparing runs is exact and costs
// O(runs). A fingerprint hit with a Matches failure is a hash collision
// between distinguishable states; callers treat it as a miss.
//
//firmament:hotpath
func (t *Template) Matches(sh Shape, profile []Run) bool {
	return t.Shape == sh && slices.Equal(t.Profile, profile)
}

// Validate is the O(tasks) feasibility check of a cache hit: every
// destination machine must exist, be healthy, and sit at exactly the
// recorded occupancy level (live occupancy plus this template's own
// earlier tasks) with a free slot. Level equality — not mere capacity — is
// what carries optimality: combined with the profile match it pins the
// committed placements to the same occupancy-level multiset the recorded
// optimum used, so the realized cost equals the recorded optimal cost.
// Validate mutates nothing; the caller commits only after it returns true.
//
//firmament:hotpath
func (t *Template) Validate(view func(m cluster.MachineID) (running, slots int, healthy bool)) bool {
	for i, as := range t.Assign {
		running, slots, healthy := view(as.Machine)
		if !healthy {
			return false
		}
		// Occupancy contributed by this template's own earlier tasks: a
		// linear scan of the prior assignments. Assign is job-sized (tens
		// of entries), so the O(tasks²) scan stays cheaper than the map it
		// replaced — and allocation-free, which the hit path requires.
		extra := int32(0)
		for _, prev := range t.Assign[:i] {
			if prev.Machine == as.Machine {
				extra++
			}
		}
		level := int32(running) + extra
		if level != as.Level || int(level) >= slots {
			return false
		}
	}
	return true
}

// Uses reports whether the template places any task on machine m.
//
//firmament:hotpath
func (t *Template) Uses(m cluster.MachineID) bool {
	for _, as := range t.Assign {
		if as.Machine == m {
			return true
		}
	}
	return false
}

// DefaultCapacity is the cache capacity NewCache uses for capacity <= 0.
const DefaultCapacity = 1024

// Cache is a fingerprint-keyed template store with deterministic FIFO
// eviction. It is not safe for concurrent use; the service confines it to
// the scheduling goroutine.
type Cache struct {
	capacity int
	entries  map[uint64]*Template
	fifo     []uint64 // live fingerprints in insertion order
}

// NewCache returns an empty cache.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{capacity: capacity, entries: make(map[uint64]*Template)}
}

// Len returns the number of cached templates.
func (c *Cache) Len() int { return len(c.fifo) }

// Lookup returns the template under fp, or nil.
//
//firmament:hotpath
func (c *Cache) Lookup(fp uint64) *Template { return c.entries[fp] }

// Insert stores t under t.FP, evicting the oldest entry when full. An
// existing entry under the same fingerprint is replaced (and moves to the
// FIFO tail).
func (c *Cache) Insert(t *Template) {
	c.Drop(t.FP)
	if len(c.fifo) >= c.capacity {
		c.Drop(c.fifo[0])
	}
	c.entries[t.FP] = t
	c.fifo = append(c.fifo, t.FP)
}

// Drop removes the entry under fp, reporting whether one existed.
func (c *Cache) Drop(fp uint64) bool {
	if _, ok := c.entries[fp]; !ok {
		return false
	}
	delete(c.entries, fp)
	for i, f := range c.fifo {
		if f == fp {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			break
		}
	}
	return true
}

// InvalidateMachine drops every template that places a task on m,
// appending the dropped fingerprints to drops (for journaling) in FIFO
// order and returning it. Machine removal changes what the recorded
// assignments mean, so affected templates are invalidated eagerly rather
// than left to fail validation one by one. One pass filters the FIFO in
// place, so a removal costs O(capacity) however many templates it drops.
func (c *Cache) InvalidateMachine(m cluster.MachineID, drops []uint64) []uint64 {
	kept := c.fifo[:0]
	for _, fp := range c.fifo {
		if c.entries[fp].Uses(m) {
			drops = append(drops, fp)
			delete(c.entries, fp)
			continue
		}
		kept = append(kept, fp)
	}
	c.fifo = kept
	return drops
}

// Range calls fn for every template in FIFO order.
func (c *Cache) Range(fn func(*Template)) {
	for _, fp := range c.fifo {
		fn(c.entries[fp])
	}
}

// Fingerprint hashes the cache's full contents in FIFO order; the
// crash-recovery equivalence tests compare a restored cache against the
// uninterrupted twin's with it.
func (c *Cache) Fingerprint() uint64 {
	h := NewHash().I64(int64(len(c.fifo)))
	for _, fp := range c.fifo {
		t := c.entries[fp]
		h = foldProfile(t.Shape.hash(h.U64(t.FP)), t.Profile)
		h = h.I64(int64(len(t.Assign)))
		for _, as := range t.Assign {
			h = h.I64(int64(as.Machine)).I64(int64(as.Level))
		}
	}
	return uint64(h)
}

// ---- codec (WAL round records and snapshots) ----

// EncodeTemplate appends t's wire image. The profile goes out expanded,
// one (running, slots) entry per machine in sorted order, so the image is
// the one journals and snapshots have always carried.
func EncodeTemplate(e *wal.Enc, t *Template) {
	e.U64(t.FP)
	e.U64(t.Shape.Sig)
	e.U8(t.Shape.Class)
	e.I64(t.Shape.Priority)
	e.I64(t.Shape.Wait)
	e.I64(int64(t.Shape.NTasks))
	e.U64(t.Shape.Specs)
	e.U32(uint32(profileLen(t.Profile)))
	for _, r := range t.Profile {
		for i := int32(0); i < r.N; i++ {
			e.U32(uint32(r.Running))
			e.U32(uint32(r.Slots))
		}
	}
	e.U32(uint32(len(t.Assign)))
	for _, as := range t.Assign {
		e.I64(int64(as.Machine))
		e.U32(uint32(as.Level))
	}
}

// DecodeTemplate reads one template, compressing the expanded wire profile
// into runs; check d.Err afterwards. A profile that is not sorted is a
// decode error: no encoder writes one, and runs built from it would not
// be canonical, so Matches could never confirm the template.
func DecodeTemplate(d *wal.Dec) *Template {
	t := &Template{}
	t.FP = d.U64()
	t.Shape.Sig = d.U64()
	t.Shape.Class = d.U8()
	t.Shape.Priority = d.I64()
	t.Shape.Wait = d.I64()
	t.Shape.NTasks = int32(d.I64())
	t.Shape.Specs = d.U64()
	np := d.Len(8)
	for i := 0; i < np; i++ {
		s := Slot{Running: int32(d.U32()), Slots: int32(d.U32())}
		if n := len(t.Profile); n > 0 {
			last := t.Profile[n-1].Slot
			if last == s {
				t.Profile[n-1].N++
				continue
			}
			if last.key() > s.key() {
				d.Fail(fmt.Errorf("template: profile entry %d out of order", i))
				break
			}
		}
		t.Profile = append(t.Profile, Run{Slot: s, N: 1})
	}
	na := d.Len(12)
	t.Assign = make([]Assignment, 0, na)
	for i := 0; i < na; i++ {
		t.Assign = append(t.Assign, Assignment{Machine: cluster.MachineID(d.I64()), Level: int32(d.U32())})
	}
	return t
}

// Encode appends the cache contents (entries in FIFO order).
func (c *Cache) Encode(e *wal.Enc) {
	e.U32(uint32(len(c.fifo)))
	c.Range(func(t *Template) { EncodeTemplate(e, t) })
}

// DecodeInto replaces the cache's contents with a previously encoded
// image; check d.Err afterwards. Entries re-insert through Insert, so a
// capacity smaller than the encoded count evicts deterministically.
func (c *Cache) DecodeInto(d *wal.Dec) {
	c.entries = make(map[uint64]*Template)
	c.fifo = c.fifo[:0]
	n := d.Len(49)
	for i := 0; i < n; i++ {
		c.Insert(DecodeTemplate(d))
	}
}
