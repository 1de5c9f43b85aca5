//go:build linux

package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"syscall"

	"caer/internal/telemetry"
)

// ShmTable is a communication table backed by a memory-mapped file, so that
// CAER layers in *separate processes* can cooperate exactly as the paper's
// prototype does with SysV shared memory. The layout keeps the paper's
// single-writer discipline: each slot's sample ring is written only by the
// CAER layer owning that slot; directives are written only by the engine.
//
// Layout (little-endian, version 2 — the period header field and the
// per-slot due stamp back the publisher-liveness protocol):
//
//	header:  magic u64 | windowSize u32 | slotCount u32 | period u64
//	slot[i]: role u32 | directive u32 | published u64 | head u32 | count u32 |
//	         due u64 | samples [windowSize]f64
//
// published is the slot's publish sequence number and due the table period
// the owner declared its next publish for (0 = never published) — under the
// default cadence of 1 that is the latest publish period plus 1, which is
// bit-identical to the original version-2 lastPub stamp, so the magic is
// unchanged. Together with the header's period counter (advanced once per
// period by the engine-side process via BumpPeriod) the stamp lets any
// consumer ask StalePeriods — how overdue a publisher is against its
// declared cadence — and detect a dead CAER-M monitor without flagging a
// sampling controller's intentional skips.
//
// ShmTable methods are not synchronized across processes beyond that
// single-writer discipline; a reader may observe a window mid-update. The
// heuristics tolerate this (they consume noisy averages), matching the
// lock-free table of the original system.
type ShmTable struct {
	f          *os.File
	data       []byte
	windowSize int
	slotCount  int
	owned      bool // created (vs attached); Close removes the file if owned
}

const (
	shmMagic      = 0x3243_4145_5254_424c // "CAERTBL2" flavoured
	shmHeaderSize = 24
	slotFixedSize = 4 + 4 + 8 + 4 + 4 + 8
)

// Byte offsets within a slot's fixed region.
const (
	slotOffPublished = 8
	slotOffHead      = 16
	slotOffCount     = 20
	slotOffDue       = 24
)

// shmOffPeriod is the header offset of the period counter.
const shmOffPeriod = 16

func slotStride(windowSize int) int { return slotFixedSize + 8*windowSize }

// shmTableSize validates a table geometry and returns the mapped size in
// bytes: both counts must be positive, fit the header's u32 fields, and
// header + slots*stride must not overflow. CreateShmTable and
// parseShmHeader share this one rule, so OpenShmTable accepts exactly the
// geometries CreateShmTable can build.
func shmTableSize(windowSize, slotCount int) (int, error) {
	if windowSize <= 0 || slotCount <= 0 || int64(windowSize) > math.MaxUint32 || int64(slotCount) > math.MaxUint32 {
		return 0, fmt.Errorf("invalid shm geometry window=%d slots=%d", windowSize, slotCount)
	}
	stride := uint64(slotFixedSize) + 8*uint64(windowSize) // < 2^36: no overflow
	hi, slots := bits.Mul64(uint64(slotCount), stride)
	if hi != 0 || slots > math.MaxInt-shmHeaderSize {
		return 0, fmt.Errorf("shm geometry window=%d slots=%d overflows", windowSize, slotCount)
	}
	return shmHeaderSize + int(slots), nil
}

// parseShmHeader decodes and validates a table header: the magic, then the
// window and slot counts under the same geometry rule CreateShmTable
// enforces. It returns the counts and the size the mapping must have.
func parseShmHeader(hdr []byte) (windowSize, slotCount, size int, err error) {
	if len(hdr) < shmHeaderSize {
		return 0, 0, 0, fmt.Errorf("shm header too small (%d bytes)", len(hdr))
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != shmMagic {
		return 0, 0, 0, fmt.Errorf("not a CAER table (bad magic)")
	}
	windowSize = int(binary.LittleEndian.Uint32(hdr[8:]))
	slotCount = int(binary.LittleEndian.Uint32(hdr[12:]))
	if size, err = shmTableSize(windowSize, slotCount); err != nil {
		return 0, 0, 0, err
	}
	return windowSize, slotCount, size, nil
}

// CreateShmTable creates (truncating) a file-backed table at path with the
// given geometry and maps it.
func CreateShmTable(path string, windowSize, slotCount int) (*ShmTable, error) {
	size, err := shmTableSize(windowSize, slotCount)
	if err != nil {
		return nil, fmt.Errorf("comm: create %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("comm: create shm file: %w", err)
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("comm: size shm file: %w", err)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("comm: mmap: %w", err)
	}
	t := &ShmTable{f: f, data: data, windowSize: windowSize, slotCount: slotCount, owned: true}
	binary.LittleEndian.PutUint64(data[0:], shmMagic)
	binary.LittleEndian.PutUint32(data[8:], uint32(windowSize))
	binary.LittleEndian.PutUint32(data[12:], uint32(slotCount))
	return t, nil
}

// OpenShmTable attaches to an existing table file created by
// CreateShmTable (typically from another process). The header is validated
// before the table is usable: a corrupt geometry (zero window or slots, or
// a size that overflows) is an error, not a later divide-by-zero.
func OpenShmTable(path string) (*ShmTable, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("comm: open shm file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("comm: stat shm file: %w", err)
	}
	if st.Size() < shmHeaderSize {
		f.Close()
		return nil, fmt.Errorf("comm: shm file too small (%d bytes)", st.Size())
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("comm: mmap: %w", err)
	}
	windowSize, slotCount, want, err := parseShmHeader(data)
	if err == nil && int(st.Size()) < want {
		err = fmt.Errorf("shm file truncated: %d < %d bytes", st.Size(), want)
	}
	if err != nil {
		syscall.Munmap(data)
		f.Close()
		return nil, fmt.Errorf("comm: open %s: %w", path, err)
	}
	return &ShmTable{f: f, data: data, windowSize: windowSize, slotCount: slotCount}, nil
}

// Close unmaps and closes the table; the creator also removes the file.
func (t *ShmTable) Close() error {
	var firstErr error
	if t.data != nil {
		if err := syscall.Munmap(t.data); err != nil && firstErr == nil {
			firstErr = err
		}
		t.data = nil
	}
	if t.f != nil {
		name := t.f.Name()
		if err := t.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if t.owned {
			if err := os.Remove(name); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		t.f = nil
	}
	return firstErr
}

// WindowSize returns the per-slot window capacity.
func (t *ShmTable) WindowSize() int { return t.windowSize }

// SlotCount returns the number of slots.
func (t *ShmTable) SlotCount() int { return t.slotCount }

func (t *ShmTable) slotOff(i int) int {
	if i < 0 || i >= t.slotCount {
		panic(fmt.Sprintf("comm: shm slot %d out of range [0,%d)", i, t.slotCount))
	}
	return shmHeaderSize + i*slotStride(t.windowSize)
}

// SetRole records slot i's role (done once by the registering process).
func (t *ShmTable) SetRole(i int, r Role) {
	binary.LittleEndian.PutUint32(t.data[t.slotOff(i):], uint32(r))
}

// RoleOf returns slot i's role.
func (t *ShmTable) RoleOf(i int) Role {
	return Role(binary.LittleEndian.Uint32(t.data[t.slotOff(i):]))
}

// SetDirective records slot i's directive.
func (t *ShmTable) SetDirective(i int, d Directive) {
	binary.LittleEndian.PutUint32(t.data[t.slotOff(i)+4:], uint32(d))
}

// DirectiveOf returns slot i's directive.
func (t *ShmTable) DirectiveOf(i int) Directive {
	return Directive(binary.LittleEndian.Uint32(t.data[t.slotOff(i)+4:]))
}

// Publish appends one sample to slot i's ring, advances the slot's publish
// sequence number, and declares the next publish due in the following
// period (cadence 1; single writer per slot).
func (t *ShmTable) Publish(i int, v float64) {
	t.PublishCadence(i, v, 1)
}

// PublishCadence is Publish with an explicit cadence declaration: the
// owner commits to publishing slot i again within cadence table periods,
// so StalePeriods measures lateness against the declared schedule (see
// Slot.PublishWithCadence). A cadence of 0 is treated as 1.
func (t *ShmTable) PublishCadence(i int, v float64, cadence uint64) {
	if cadence == 0 {
		cadence = 1
	}
	telemetry.CommPublishes.Inc()
	off := t.slotOff(i)
	published := binary.LittleEndian.Uint64(t.data[off+slotOffPublished:])
	head := int(binary.LittleEndian.Uint32(t.data[off+slotOffHead:]))
	count := int(binary.LittleEndian.Uint32(t.data[off+slotOffCount:]))
	ring := off + slotFixedSize
	if count == t.windowSize {
		binary.LittleEndian.PutUint64(t.data[ring+8*head:], math.Float64bits(v))
		head = (head + 1) % t.windowSize
	} else {
		pos := (head + count) % t.windowSize
		binary.LittleEndian.PutUint64(t.data[ring+8*pos:], math.Float64bits(v))
		count++
	}
	binary.LittleEndian.PutUint64(t.data[off+slotOffPublished:], published+1)
	binary.LittleEndian.PutUint32(t.data[off+slotOffHead:], uint32(head))
	binary.LittleEndian.PutUint32(t.data[off+slotOffCount:], uint32(count))
	binary.LittleEndian.PutUint64(t.data[off+slotOffDue:],
		binary.LittleEndian.Uint64(t.data[shmOffPeriod:])+cadence)
}

// DeclareCadence re-stamps slot i's expected next publish to cadence table
// periods from now without publishing a sample (see Slot.DeclareCadence).
// A never-published slot stays never-published. A cadence of 0 is treated
// as 1.
func (t *ShmTable) DeclareCadence(i int, cadence uint64) {
	if cadence == 0 {
		cadence = 1
	}
	off := t.slotOff(i)
	if binary.LittleEndian.Uint64(t.data[off+slotOffDue:]) == 0 {
		return
	}
	binary.LittleEndian.PutUint64(t.data[off+slotOffDue:],
		binary.LittleEndian.Uint64(t.data[shmOffPeriod:])+cadence)
}

// Published returns slot i's publish sequence number (the lifetime sample
// count).
func (t *ShmTable) Published(i int) uint64 {
	return binary.LittleEndian.Uint64(t.data[t.slotOff(i)+slotOffPublished:])
}

// BumpPeriod advances the table-wide sampling-period counter. The
// engine-side process calls it exactly once per period, before the
// period's publishes, so StalePeriods measures publisher liveness in
// periods (single writer: only one process owns the period counter).
func (t *ShmTable) BumpPeriod() {
	binary.LittleEndian.PutUint64(t.data[shmOffPeriod:],
		binary.LittleEndian.Uint64(t.data[shmOffPeriod:])+1)
}

// Period returns the table's current sampling-period counter.
func (t *ShmTable) Period() uint64 {
	return binary.LittleEndian.Uint64(t.data[shmOffPeriod:])
}

// StalePeriods returns how many table periods slot i's owner is overdue
// against its declared cadence — 0 while the table clock has not passed the
// declared next-publish period (under the default cadence of 1, 0 when the
// slot published during the current period), the full table age when it
// never published. A consumer watching this grow without bound is reading a
// dead publisher (a crashed CAER-M monitor) and must fail open rather than
// trust the frozen window; a publisher honouring a declared wider cadence
// never looks stale.
func (t *ShmTable) StalePeriods(i int) uint64 {
	off := t.slotOff(i)
	period := binary.LittleEndian.Uint64(t.data[shmOffPeriod:])
	due := binary.LittleEndian.Uint64(t.data[off+slotOffDue:])
	if due == 0 {
		return period
	}
	if period < due {
		return 0
	}
	return period - due + 1
}

// Samples returns a copy of slot i's windowed samples, oldest first.
func (t *ShmTable) Samples(i int) []float64 {
	off := t.slotOff(i)
	head := int(binary.LittleEndian.Uint32(t.data[off+slotOffHead:]))
	count := int(binary.LittleEndian.Uint32(t.data[off+slotOffCount:]))
	ring := off + slotFixedSize
	out := make([]float64, count)
	for j := 0; j < count; j++ {
		pos := (head + j) % t.windowSize
		out[j] = math.Float64frombits(binary.LittleEndian.Uint64(t.data[ring+8*pos:]))
	}
	return out
}

// WindowMean returns the mean of slot i's windowed samples (0 when empty).
// It sums the ring in place — this runs in the engines' per-period read
// path, which must not allocate (the mean is order-independent, so the
// valid prefix of the ring array is summed directly).
func (t *ShmTable) WindowMean(i int) float64 {
	off := t.slotOff(i)
	count := int(binary.LittleEndian.Uint32(t.data[off+slotOffCount:]))
	if count == 0 {
		return 0
	}
	if count > t.windowSize {
		count = t.windowSize
	}
	ring := off + slotFixedSize
	var sum float64
	for j := 0; j < count; j++ {
		sum += math.Float64frombits(binary.LittleEndian.Uint64(t.data[ring+8*j:]))
	}
	return sum / float64(count)
}
