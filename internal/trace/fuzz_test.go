package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"caer/internal/telemetry"
)

// fuzzTraceSeed builds a small recorded run and exports it — the golden
// WriteChrome shape (thread-name metadata, counter events, paused slices).
func fuzzTraceSeed(tb testing.TB) []byte {
	tr := New(2)
	tr.Append(0, []CoreSample{{LLCMisses: 10, Instructions: 4000}, {LLCMisses: 900, Instructions: 2500, Paused: false}})
	tr.Append(1, []CoreSample{{LLCMisses: 12, Instructions: 4100}, {LLCMisses: 30, Instructions: 100, Paused: true}})
	tr.Append(2, []CoreSample{{LLCMisses: 11, Instructions: 4050}, {LLCMisses: 800, Instructions: 2400}})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		tb.Fatalf("seed trace: %v", err)
	}
	return buf.Bytes()
}

// FuzzParseChromeTrace fuzzes the Chrome trace-event reader used by the
// caer-trace round-trip tooling and the telemetry /trace consumers.
//
// Invariants: ParseChromeEvents never panics; accepted traces survive a
// re-encode/re-parse cycle with the same event count and period coverage;
// and PeriodCountFromChrome/ArgNumber tolerate arbitrary accepted events.
func FuzzParseChromeTrace(f *testing.F) {
	f.Add(fuzzTraceSeed(f))
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"pmu","ph":"C","ts":1000,"pid":1,"tid":0,"args":{"llc_misses":5}}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"paused","ph":"X","ts":0,"dur":3000,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`))
	f.Add([]byte(`{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core0"}}]}`))
	f.Add([]byte(`{"traceEvents": null}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"traceEvents":[{"ts":"not a number"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseChromeEvents(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic invariant applies
		}
		periods := PeriodCountFromChrome(events)
		if periods < 0 || periods > len(events) {
			t.Fatalf("period count %d out of range for %d events", periods, len(events))
		}
		for _, e := range events {
			_ = e.ArgNumber("llc_misses") // must tolerate any args shape
		}
		// Accepted traces must survive re-encode -> re-parse.
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := ParseChromeEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of re-encoded trace failed: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("round-trip changed event count: %d -> %d", len(events), len(back))
		}
		if got := PeriodCountFromChrome(back); got != periods {
			t.Fatalf("round-trip changed period coverage: %d -> %d", periods, got)
		}
	})
}

// FuzzRead fuzzes the binary trace reader behind caer-trace replay.
//
// Contract: Read returns an error and never panics on malformed input
// (truncation, bad magic or version, zero cores, an implausible record
// count), and any trace it accepts survives a WriteTo -> Read round trip
// unchanged.
func FuzzRead(f *testing.F) {
	tr := New(2)
	tr.Append(0, []CoreSample{{LLCMisses: 10, Instructions: 4000}, {LLCMisses: 900, Instructions: 2500}})
	tr.Append(1, []CoreSample{{LLCMisses: 12, Instructions: 4100}, {LLCMisses: 30, Instructions: 100, Paused: true}})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatalf("seed trace: %v", err)
	}
	valid := buf.Bytes()
	header := func(cores uint16, records uint64) []byte {
		h := binary.LittleEndian.AppendUint32(nil, traceMagic)
		h = append(h, traceVersion)
		h = binary.LittleEndian.AppendUint16(h, cores)
		return binary.LittleEndian.AppendUint64(h, records)
	}
	f.Add(valid)                                                // round-tripped trace
	f.Add(valid[:len(valid)-5])                                 // truncated mid-record
	f.Add(append([]byte{0xde, 0xad, 0xbe, 0xef}, valid[4:]...)) // bad magic
	f.Add(header(0, 1))                                         // zero cores
	f.Add(header(2, 1<<40))                                     // oversized record count
	f.Add(header(1, 3))                                         // records promised, none present

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic contract applies
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-read of re-encoded trace failed: %v", err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the trace:\n got  %+v\n back %+v", got, back)
		}
	})
}
