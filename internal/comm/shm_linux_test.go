//go:build linux

package comm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestShmTableCreateAndRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caer.tbl")
	tab, err := CreateShmTable(path, 4, 2)
	if err != nil {
		t.Fatalf("CreateShmTable: %v", err)
	}
	defer tab.Close()
	if tab.WindowSize() != 4 || tab.SlotCount() != 2 {
		t.Fatalf("geometry = %d/%d, want 4/2", tab.WindowSize(), tab.SlotCount())
	}
	tab.SetRole(0, RoleLatency)
	tab.SetRole(1, RoleBatch)
	if tab.RoleOf(0) != RoleLatency || tab.RoleOf(1) != RoleBatch {
		t.Error("roles did not round-trip")
	}
	for _, v := range []float64{1.5, 2.5, 3.5, 4.5, 5.5} {
		tab.Publish(0, v)
	}
	if tab.Published(0) != 5 {
		t.Errorf("Published = %d, want 5", tab.Published(0))
	}
	got := tab.Samples(0)
	want := []float64{2.5, 3.5, 4.5, 5.5}
	if len(got) != len(want) {
		t.Fatalf("Samples len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Samples[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if m := tab.WindowMean(0); m != 4 {
		t.Errorf("WindowMean = %v, want 4", m)
	}
	if s := tab.Samples(1); len(s) != 0 {
		t.Errorf("slot 1 has %d samples, want 0", len(s))
	}
}

func TestShmTableCrossMappingVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caer.tbl")
	creator, err := CreateShmTable(path, 8, 2)
	if err != nil {
		t.Fatalf("CreateShmTable: %v", err)
	}
	defer creator.Close()
	attached, err := OpenShmTable(path)
	if err != nil {
		t.Fatalf("OpenShmTable: %v", err)
	}
	defer attached.Close()
	if attached.WindowSize() != 8 || attached.SlotCount() != 2 {
		t.Fatalf("attached geometry = %d/%d", attached.WindowSize(), attached.SlotCount())
	}
	// Writes through one mapping are visible through the other (MAP_SHARED),
	// which is what lets two CAER processes cooperate.
	creator.Publish(0, 42)
	if got := attached.Samples(0); len(got) != 1 || got[0] != 42 {
		t.Errorf("attached mapping saw %v, want [42]", got)
	}
	attached.SetDirective(1, DirectivePause)
	if creator.DirectiveOf(1) != DirectivePause {
		t.Error("directive written via attached mapping not visible to creator")
	}
}

func TestShmTableOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenShmTable(filepath.Join(dir, "missing.tbl")); err == nil {
		t.Error("OpenShmTable(missing) succeeded")
	}
	// Not a table: wrong magic.
	path := filepath.Join(dir, "junk.tbl")
	junk, err := CreateShmTable(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	junk.data[0] = 0xFF // corrupt magic
	junk.Close()
	// Closing removed the owned file; recreate junk content manually.
	if _, err := OpenShmTable(path); err == nil {
		t.Error("OpenShmTable on removed/corrupt file succeeded")
	}
}

func TestShmTableGeometryValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateShmTable(filepath.Join(dir, "x"), 0, 1); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := CreateShmTable(filepath.Join(dir, "x"), 1, 0); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestShmTableSlotRangePanics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caer.tbl")
	tab, err := CreateShmTable(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slot did not panic")
		}
	}()
	tab.Publish(1, 0)
}

// TestShmTableMatchesInMemoryTable is a differential property test: a
// random publish/directive sequence applied to both the mmap-backed table
// and the in-memory Table must yield identical observable state.
func TestShmTableMatchesInMemoryTable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		window := rng.Intn(8) + 1
		path := filepath.Join(t.TempDir(), "diff.tbl")
		shm, err := CreateShmTable(path, window, 2)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewTable(window)
		slots := []*Slot{mem.Register("a", RoleLatency), mem.Register("b", RoleBatch)}
		shm.SetRole(0, RoleLatency)
		shm.SetRole(1, RoleBatch)

		for op := 0; op < 200; op++ {
			slot := rng.Intn(2)
			switch rng.Intn(3) {
			case 0, 1:
				v := float64(rng.Intn(1000))
				shm.Publish(slot, v)
				slots[slot].Publish(v)
			case 2:
				d := Directive(rng.Intn(2))
				shm.SetDirective(slot, d)
				slots[slot].SetDirective(d)
			}
			// Compare observable state.
			for s := 0; s < 2; s++ {
				if shm.Published(s) != slots[s].Published() {
					t.Fatalf("trial %d op %d slot %d: published %d vs %d",
						trial, op, s, shm.Published(s), slots[s].Published())
				}
				if shm.DirectiveOf(s) != slots[s].Directive() {
					t.Fatalf("trial %d op %d slot %d: directive mismatch", trial, op, s)
				}
				got, want := shm.Samples(s), slots[s].Samples()
				if len(got) != len(want) {
					t.Fatalf("trial %d op %d slot %d: window %v vs %v", trial, op, s, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d op %d slot %d: window %v vs %v", trial, op, s, got, want)
					}
				}
				if shm.WindowMean(s) != slots[s].WindowMean() {
					t.Fatalf("trial %d op %d slot %d: mean %v vs %v",
						trial, op, s, shm.WindowMean(s), slots[s].WindowMean())
				}
			}
		}
		shm.Close()
	}
}

func TestShmTableCloseRemovesOwnedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caer.tbl")
	tab, err := CreateShmTable(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := OpenShmTable(path); err == nil {
		t.Error("owned file still present after Close")
	}
	// Double close is safe.
	if err := tab.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestShmTableStalePeriods(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caer.tbl")
	tab, err := CreateShmTable(path, 4, 2)
	if err != nil {
		t.Fatalf("CreateShmTable: %v", err)
	}
	defer tab.Close()

	if tab.Period() != 0 || tab.StalePeriods(0) != 0 {
		t.Fatal("fresh shm table reports a period or staleness")
	}

	// Healthy periods: slot 0 publishes each period, slot 1 never does.
	for p := 1; p <= 4; p++ {
		tab.BumpPeriod()
		tab.Publish(0, float64(p))
		if got := tab.StalePeriods(0); got != 0 {
			t.Fatalf("period %d: healthy slot stale by %d", p, got)
		}
		if got := tab.StalePeriods(1); got != uint64(p) {
			t.Fatalf("period %d: never-published slot stale by %d, want %d", p, got, p)
		}
	}

	// Slot 0's publisher dies; staleness grows until it resumes.
	for k := 1; k <= 3; k++ {
		tab.BumpPeriod()
		if got := tab.StalePeriods(0); got != uint64(k) {
			t.Fatalf("after %d silent periods StalePeriods = %d", k, got)
		}
	}
	tab.Publish(0, 9)
	if got := tab.StalePeriods(0); got != 0 {
		t.Fatalf("StalePeriods after resumed publish = %d, want 0", got)
	}

	// The liveness protocol is cross-process state: an attached mapping
	// sees the same period and staleness.
	attached, err := OpenShmTable(path)
	if err != nil {
		t.Fatalf("OpenShmTable: %v", err)
	}
	defer attached.Close()
	if attached.Period() != tab.Period() {
		t.Error("attached mapping disagrees on period")
	}
	if attached.StalePeriods(0) != 0 || attached.StalePeriods(1) != tab.Period() {
		t.Error("attached mapping disagrees on staleness")
	}
	if attached.Published(0) != 5 {
		t.Errorf("attached Published = %d, want 5", attached.Published(0))
	}
}

// TestShmTableHotPathAllocs pins the shared-memory hot path at zero
// allocations: the engine reads WindowMean for every neighbor every period
// and the monitor publishes every period, both on the 1 ms loop.
func TestShmTableHotPathAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caer.tbl")
	tab, err := CreateShmTable(path, 8, 2)
	if err != nil {
		t.Fatalf("CreateShmTable: %v", err)
	}
	defer tab.Close()
	for i := 0; i < 8; i++ {
		tab.Publish(0, float64(i))
	}
	if n := testing.AllocsPerRun(1000, func() { tab.WindowMean(0) }); n != 0 {
		t.Errorf("ShmTable.WindowMean allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tab.Publish(0, 42) }); n != 0 {
		t.Errorf("ShmTable.Publish allocates %v per run, want 0", n)
	}
}

// shmHeaderBytes encodes a table header with the given geometry.
func shmHeaderBytes(windowSize, slotCount uint32) []byte {
	hdr := make([]byte, shmHeaderSize)
	binary.LittleEndian.PutUint64(hdr[0:], shmMagic)
	binary.LittleEndian.PutUint32(hdr[8:], windowSize)
	binary.LittleEndian.PutUint32(hdr[12:], slotCount)
	return hdr
}

// TestOpenShmTableRejectsBadGeometry is the regression test for a header
// with window 0: it used to open with a nil error, and the next Publish
// divided by zero. Open must apply CreateShmTable's geometry rule.
func TestOpenShmTableRejectsBadGeometry(t *testing.T) {
	cases := map[string][]byte{
		"zero window": shmHeaderBytes(0, 2),
		"zero slots":  shmHeaderBytes(8, 0),
		"truncated":   shmHeaderBytes(8, 2),
	}
	for name, hdr := range cases {
		path := filepath.Join(t.TempDir(), "bad.tbl")
		// Large enough for any slot count above, except the truncated case.
		body := append(hdr, make([]byte, 64)...)
		if err := os.WriteFile(path, body, 0o600); err != nil {
			t.Fatal(err)
		}
		if tab, err := OpenShmTable(path); err == nil {
			tab.Close()
			t.Errorf("%s: OpenShmTable accepted header %x", name, hdr)
		}
	}
	// slots*stride at the u32 maxima exceeds 2^64: an overflow, not a size.
	if _, _, _, err := parseShmHeader(shmHeaderBytes(math.MaxUint32, math.MaxUint32)); err == nil {
		t.Error("overflowing geometry accepted")
	}
}

// FuzzParseShmHeader: every header parseShmHeader accepts describes a
// table CreateShmTable would build — positive counts and a size equal to
// the create-side computation, which Publish can then index without
// dividing by zero or overflowing.
func FuzzParseShmHeader(f *testing.F) {
	f.Add(shmHeaderBytes(8, 2))
	f.Add(shmHeaderBytes(0, 2))
	f.Add(shmHeaderBytes(8, 0))
	f.Add(shmHeaderBytes(math.MaxUint32, math.MaxUint32))
	f.Add([]byte("CAERTBL"))
	f.Fuzz(func(t *testing.T, hdr []byte) {
		window, slots, size, err := parseShmHeader(hdr)
		if err != nil {
			return
		}
		if window <= 0 || slots <= 0 {
			t.Fatalf("accepted geometry window=%d slots=%d", window, slots)
		}
		want, err := shmTableSize(window, slots)
		if err != nil || want != size {
			t.Fatalf("accepted size %d, create-side rule gives %d (%v)", size, want, err)
		}
		if last := shmHeaderSize + (slots-1)*slotStride(window); last+slotStride(window) != size || last < 0 {
			t.Fatalf("slot layout %d+%d does not end at size %d", last, slotStride(window), size)
		}
	})
}
