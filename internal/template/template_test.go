package template

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"firmament/internal/cluster"
	"firmament/internal/wal"
)

func testShape() Shape {
	return Shape{Sig: 0xdead, Class: 1, Priority: 3, Wait: 2, NTasks: 4, Specs: 0xbeef}
}

func testProfile() []Run {
	return []Run{{Slot{0, 4}, 1}, {Slot{1, 4}, 2}, {Slot{2, 8}, 1}}
}

// runsOf canonicalizes a per-machine profile, in any machine order.
func runsOf(slots ...Slot) []Run {
	runs := make([]Run, 0, len(slots))
	for _, s := range slots {
		runs = append(runs, Run{Slot: s, N: 1})
	}
	return Canonicalize(runs)
}

// expand is the per-machine sorted profile a run list stands for.
func expand(runs []Run) []Slot {
	var out []Slot
	for _, r := range runs {
		for i := int32(0); i < r.N; i++ {
			out = append(out, r.Slot)
		}
	}
	return out
}

// TestFingerprintSensitivity: every policy-visible field of the shape and
// every profile entry must perturb the fingerprint — a template recorded
// under one state must not index a distinguishable one.
func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint(testShape(), testProfile())

	mutations := map[string]func() uint64{
		"sig": func() uint64 {
			sh := testShape()
			sh.Sig++
			return Fingerprint(sh, testProfile())
		},
		"class": func() uint64 {
			sh := testShape()
			sh.Class++
			return Fingerprint(sh, testProfile())
		},
		"priority": func() uint64 {
			sh := testShape()
			sh.Priority++
			return Fingerprint(sh, testProfile())
		},
		"wait": func() uint64 {
			sh := testShape()
			sh.Wait++
			return Fingerprint(sh, testProfile())
		},
		"ntasks": func() uint64 {
			sh := testShape()
			sh.NTasks++
			return Fingerprint(sh, testProfile())
		},
		"specs": func() uint64 {
			sh := testShape()
			sh.Specs++
			return Fingerprint(sh, testProfile())
		},
		"profile-running": func() uint64 {
			p := expand(testProfile())
			p[1].Running++
			return Fingerprint(testShape(), runsOf(p...))
		},
		"profile-slots": func() uint64 {
			p := testProfile()
			p[2].Slots++
			return Fingerprint(testShape(), p)
		},
		"profile-len": func() uint64 {
			return Fingerprint(testShape(), testProfile()[:2])
		},
		"profile-count": func() uint64 {
			p := testProfile()
			p[0].N++
			return Fingerprint(testShape(), p)
		},
	}
	for name, fn := range mutations {
		if got := fn(); got == base {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}

	// Permutation invariance: the profile is a multiset, so a pre-sort
	// permutation of machine order must not matter.
	p := runsOf(Slot{1, 4}, Slot{2, 8}, Slot{0, 4}, Slot{1, 4})
	if got := Fingerprint(testShape(), p); got != base {
		t.Errorf("sorted permutation changed the fingerprint: %x != %x", got, base)
	}
}

// expandedFingerprint is the fingerprint as a fold over the per-machine
// sorted profile, the form templates were keyed by before profiles became
// run lists. Journals and snapshots carry those keys, so the run-list
// Fingerprint must reproduce them bit for bit.
func expandedFingerprint(sh Shape, profile []Slot) uint64 {
	h := sh.hash(NewHash()).I64(int64(len(profile)))
	for _, s := range profile {
		h = h.U64(uint64(uint32(s.Running))<<32 | uint64(uint32(s.Slots)))
	}
	return uint64(h)
}

// expandedCacheFingerprint is Cache.Fingerprint folded over per-machine
// profiles.
func expandedCacheFingerprint(c *Cache) uint64 {
	h := NewHash().I64(int64(c.Len()))
	c.Range(func(t *Template) {
		prof := expand(t.Profile)
		h = t.Shape.hash(h.U64(t.FP)).I64(int64(len(prof)))
		for _, s := range prof {
			h = h.U64(uint64(uint32(s.Running))<<32 | uint64(uint32(s.Slots)))
		}
		h = h.I64(int64(len(t.Assign)))
		for _, as := range t.Assign {
			h = h.I64(int64(as.Machine)).I64(int64(as.Level))
		}
	})
	return uint64(h)
}

// randomSlots draws a per-machine profile in machine order: n machines
// whose slot counts are drawn from kinds distinct values, each with a
// random occupancy in [0, slots].
func randomSlots(rng *rand.Rand, n, kinds int) []Slot {
	out := make([]Slot, n)
	for i := range out {
		slots := int32(1 + 4*rng.Intn(kinds))
		out[i] = Slot{Running: rng.Int31n(slots + 1), Slots: slots}
	}
	return out
}

// TestFingerprintMatchesExpandedProfile: on seeded random profiles —
// homogeneous and heterogeneous slot counts, up to hundreds of distinct
// (running, slots) pairs, plus the empty and single-machine profiles —
// Fingerprint over runs and Cache.Fingerprint equal the fold over the
// sorted per-machine profile, and the run list is canonical and expands
// back to that profile.
func TestFingerprintMatchesExpandedProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]Slot{nil, {{Running: 3, Slots: 8}}}
	for i := 0; i < 300; i++ {
		kinds := []int{1, 3, 40}[i%3]
		cases = append(cases, randomSlots(rng, rng.Intn(600), kinds))
	}
	c := NewCache(len(cases))
	for i, machines := range cases {
		sorted := slices.Clone(machines)
		sort.Slice(sorted, func(a, b int) bool {
			if sorted[a].Running != sorted[b].Running {
				return sorted[a].Running < sorted[b].Running
			}
			return sorted[a].Slots < sorted[b].Slots
		})
		runs := runsOf(machines...)
		for k, r := range runs {
			if r.N < 1 || k > 0 && compareRuns(runs[k-1], r) >= 0 {
				t.Fatalf("case %d: run list not canonical at %d: %v", i, k, runs)
			}
		}
		if !slices.Equal(expand(runs), sorted) {
			t.Fatalf("case %d: runs do not expand to the sorted profile", i)
		}
		sh := testShape()
		sh.Specs = uint64(i)
		fp := Fingerprint(sh, runs)
		if want := expandedFingerprint(sh, sorted); fp != want {
			t.Fatalf("case %d (%d machines): fingerprint %x, per-machine fold %x", i, len(machines), fp, want)
		}
		c.Insert(&Template{FP: fp, Shape: sh, Profile: runs, Assign: []Assignment{{Machine: cluster.MachineID(i), Level: 1}}})
	}
	if got, want := c.Fingerprint(), expandedCacheFingerprint(c); got != want {
		t.Fatalf("cache fingerprint %x, per-machine fold %x", got, want)
	}
}

func mkTemplate(fp uint64, machines ...cluster.MachineID) *Template {
	tt := &Template{FP: fp, Shape: testShape(), Profile: testProfile()}
	for i, m := range machines {
		tt.Assign = append(tt.Assign, Assignment{Machine: m, Level: int32(i)})
	}
	return tt
}

func TestCacheFIFOEviction(t *testing.T) {
	c := NewCache(2)
	c.Insert(mkTemplate(1, 10))
	c.Insert(mkTemplate(2, 11))
	c.Insert(mkTemplate(3, 12)) // evicts 1
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Lookup(1) != nil {
		t.Fatal("oldest entry not evicted")
	}
	if c.Lookup(2) == nil || c.Lookup(3) == nil {
		t.Fatal("younger entries lost")
	}

	// Re-inserting an existing fingerprint replaces it and moves it to the
	// FIFO tail: the next eviction must take 3, not 2.
	c.Insert(mkTemplate(2, 20))
	c.Insert(mkTemplate(4, 13))
	if c.Lookup(3) != nil {
		t.Fatal("refreshed entry should have outlived entry 3")
	}
	if got := c.Lookup(2); got == nil || got.Assign[0].Machine != 20 {
		t.Fatal("re-insert did not replace the entry")
	}
}

func TestCacheDropAndInvalidateMachine(t *testing.T) {
	c := NewCache(8)
	c.Insert(mkTemplate(1, 10, 11))
	c.Insert(mkTemplate(2, 12))
	c.Insert(mkTemplate(3, 11, 12))

	if !c.Drop(2) || c.Drop(2) {
		t.Fatal("Drop must report presence exactly once")
	}

	// Invalidating machine 11 drops templates 1 and 3; the pre-existing
	// drops prefix must be preserved (the service accumulates across
	// multiple machine removals in one round).
	drops := []uint64{99}
	drops = c.InvalidateMachine(11, drops)
	if !slices.Equal(drops, []uint64{99, 1, 3}) {
		t.Fatalf("drops = %v, want [99 1 3]", drops)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after invalidation, want 0", c.Len())
	}

	// The one-pass filter must leave exactly what dropping each matching
	// fingerprint in turn leaves: the same drops, in FIFO order, and the
	// same surviving FIFO.
	fill := func() *Cache {
		c := NewCache(64)
		for fp := uint64(1); fp <= 40; fp++ {
			c.Insert(mkTemplate(fp, cluster.MachineID(fp%5), cluster.MachineID(fp%7)))
		}
		c.Insert(mkTemplate(3, 4)) // re-insert moves 3 to the FIFO tail
		return c
	}
	for m := cluster.MachineID(0); m < 8; m++ {
		one, ref := fill(), fill()
		got := one.InvalidateMachine(m, nil)
		var want []uint64
		ref.Range(func(tt *Template) {
			if tt.Uses(m) {
				want = append(want, tt.FP)
			}
		})
		for _, fp := range want {
			ref.Drop(fp)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("machine %d: drops %v, one-by-one %v", m, got, want)
		}
		if one.Len() != ref.Len() || one.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("machine %d: cache after one pass differs from dropping one by one", m)
		}
		for _, fp := range got {
			if one.Lookup(fp) != nil {
				t.Fatalf("machine %d: dropped template %d still resolves", m, fp)
			}
		}
	}
}

func TestValidateRejectsStaleState(t *testing.T) {
	// Template: two tasks on machine 5 at levels 1 and 2, one on machine 6
	// at level 0.
	tt := &Template{FP: 1, Shape: testShape(), Assign: []Assignment{
		{Machine: 5, Level: 1}, {Machine: 5, Level: 2}, {Machine: 6, Level: 0},
	}}
	view := func(running5, slots5 int, healthy5 bool, running6 int) func(cluster.MachineID) (int, int, bool) {
		return func(m cluster.MachineID) (int, int, bool) {
			switch m {
			case 5:
				return running5, slots5, healthy5
			case 6:
				return running6, 4, true
			}
			return 0, 0, false
		}
	}

	if !tt.Validate(view(1, 4, true, 0)) {
		t.Fatal("exact recorded state must validate")
	}
	if tt.Validate(view(0, 4, true, 0)) {
		t.Fatal("lower occupancy than recorded must fail (cost would differ)")
	}
	if tt.Validate(view(2, 4, true, 0)) {
		t.Fatal("higher occupancy than recorded must fail")
	}
	if !tt.Validate(view(1, 3, true, 0)) {
		t.Fatal("level 2 with 3 slots occupies the last slot; still feasible")
	}
	if tt.Validate(view(1, 2, true, 0)) {
		t.Fatal("level 2 with 2 slots exceeds capacity; must fail")
	}
	if tt.Validate(view(1, 4, false, 0)) {
		t.Fatal("unhealthy machine must fail")
	}
	if tt.Validate(view(1, 4, true, 1)) {
		t.Fatal("second machine's occupancy shift must fail")
	}
	if (&Template{FP: 1, Assign: []Assignment{{Machine: 7, Level: 0}}}).Validate(view(0, 0, true, 0)) {
		t.Fatal("unknown machine must fail")
	}
}

func TestMatchesExact(t *testing.T) {
	tt := mkTemplate(1, 10)
	if !tt.Matches(testShape(), testProfile()) {
		t.Fatal("identical shape+profile must match")
	}
	sh := testShape()
	sh.Specs++
	if tt.Matches(sh, testProfile()) {
		t.Fatal("different shape must not match (hash-collision guard)")
	}
	p := testProfile()
	p[0].Running++
	if tt.Matches(testShape(), p) {
		t.Fatal("different profile must not match")
	}
	p = testProfile()
	p[1].N--
	if tt.Matches(testShape(), p) {
		t.Fatal("profile with a different machine count must not match")
	}
	if tt.Matches(testShape(), testProfile()[:2]) {
		t.Fatal("shorter profile must not match")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := NewCache(8)
	c.Insert(mkTemplate(7, 1, 2, 1))
	c.Insert(mkTemplate(9, 3))

	var e wal.Enc
	c.Encode(&e)

	c2 := NewCache(8)
	d := wal.NewDec(e.B)
	c2.DecodeInto(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
	if c2.Len() != c.Len() {
		t.Fatalf("Len = %d, want %d", c2.Len(), c.Len())
	}
	if c2.Fingerprint() != c.Fingerprint() {
		t.Fatal("cache fingerprint changed across codec round trip")
	}

	// Decoding into a smaller cache must evict deterministically (FIFO).
	c3 := NewCache(1)
	d = wal.NewDec(e.B)
	c3.DecodeInto(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode into small cache: %v", err)
	}
	if c3.Len() != 1 || c3.Lookup(9) == nil {
		t.Fatal("shrunk cache must keep the newest entry")
	}

	// Truncated input must surface an error, not panic.
	d = wal.NewDec(e.B[:len(e.B)-3])
	c4 := NewCache(8)
	c4.DecodeInto(d)
	if d.Err() == nil {
		t.Fatal("truncated cache image must fail to decode")
	}
}

// encodeExpanded writes a template image with the profile given per
// machine, exactly as the wire format lays it out.
func encodeExpanded(e *wal.Enc, t *Template, profile []Slot) {
	e.U64(t.FP)
	e.U64(t.Shape.Sig)
	e.U8(t.Shape.Class)
	e.I64(t.Shape.Priority)
	e.I64(t.Shape.Wait)
	e.I64(int64(t.Shape.NTasks))
	e.U64(t.Shape.Specs)
	e.U32(uint32(len(profile)))
	for _, s := range profile {
		e.U32(uint32(s.Running))
		e.U32(uint32(s.Slots))
	}
	e.U32(uint32(len(t.Assign)))
	for _, as := range t.Assign {
		e.I64(int64(as.Machine))
		e.U32(uint32(as.Level))
	}
}

// TestCodecExpandedProfile: the wire image carries the per-machine sorted
// profile. Such an image decodes to runs, re-encodes byte for byte, and
// keeps its fingerprint; an unsorted profile is a decode error.
func TestCodecExpandedProfile(t *testing.T) {
	profile := []Slot{{0, 4}, {0, 4}, {0, 8}, {1, 4}, {1, 4}, {1, 4}, {3, 8}}
	tt := mkTemplate(0, 5, 6)
	tt.FP = expandedFingerprint(tt.Shape, profile)
	var e wal.Enc
	encodeExpanded(&e, tt, profile)

	d := wal.NewDec(e.B)
	got := DecodeTemplate(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := []Run{{Slot{0, 4}, 2}, {Slot{0, 8}, 1}, {Slot{1, 4}, 3}, {Slot{3, 8}, 1}}
	if !slices.Equal(got.Profile, want) {
		t.Fatalf("decoded profile %v, want %v", got.Profile, want)
	}
	if Fingerprint(got.Shape, got.Profile) != got.FP {
		t.Fatal("decoded template no longer hashes to its recorded fingerprint")
	}
	var re wal.Enc
	EncodeTemplate(&re, got)
	if !bytes.Equal(re.B, e.B) {
		t.Fatal("re-encoded template image differs from the decoded one")
	}

	unsorted := slices.Clone(profile)
	unsorted[2], unsorted[3] = unsorted[3], unsorted[2]
	var bad wal.Enc
	encodeExpanded(&bad, tt, unsorted)
	d = wal.NewDec(bad.B)
	DecodeTemplate(d)
	if d.Err() == nil {
		t.Fatal("unsorted wire profile must fail to decode")
	}
}
