package cfa_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
)

// FuzzTraceFile feeds arbitrary bytes to the PSTRC01 reader through a
// file on disk, the way slicerd spools uploaded traces. The contract
// (docs/ROBUSTNESS.md): OpenTraceFile never panics; every malformation
// — short header, bad magic, a PSTRC02 header, wrong fingerprint,
// truncated record, unknown edge ID, a sequence that is not a program
// path — is a typed *TraceFormatError; and a file it accepts reads
// back through the PathReader as a valid path whose call index matches
// Path.CallIdx and which re-encodes to the same bytes.
func FuzzTraceFile(f *testing.F) {
	prog := compile.MustSource(streamProg)
	p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: true, MaxEdgeUses: 2})
	if p == nil {
		f.Fatal("no path to error for the fuzz fixture")
	}
	genuine := encodeTrace(f, prog, p)
	f.Add(genuine)
	f.Add([]byte{})
	f.Add([]byte("PSTRC01\n"))
	f.Add(genuine[:16])             // header only: empty path
	f.Add(genuine[:len(genuine)-1]) // truncated record
	f.Add(append([]byte("PSTRC02\n"), genuine[8:]...))
	corrupt := append([]byte(nil), genuine...)
	binary.LittleEndian.PutUint32(corrupt[16:], 1<<20) // unknown edge ID
	f.Add(corrupt)
	swapped := append([]byte(nil), genuine...)
	copy(swapped[16:20], genuine[20:24]) // edges out of order
	copy(swapped[20:24], genuine[16:20])
	f.Add(swapped)

	f.Fuzz(func(t *testing.T, data []byte) {
		name := filepath.Join(t.TempDir(), "trace.pstrc")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := cfa.OpenTraceFile(name, prog)
		if err != nil {
			var tfe *cfa.TraceFormatError
			if !errors.As(err, &tfe) {
				t.Fatalf("non-typed open error %T: %v", err, err)
			}
			return
		}
		defer r.Close()
		// Read back to front, the slicer's access pattern.
		got := make(cfa.Path, r.Len())
		for i := r.Len() - 1; i >= 0; i-- {
			if got[i] = r.Edge(i); got[i] == nil {
				t.Fatalf("Edge(%d) of an accepted trace failed: %v", i, r.Err())
			}
		}
		if verr := got.Validate(prog); verr != nil {
			t.Fatalf("accepted trace is not a valid path: %v", verr)
		}
		for i, want := range got.CallIdx() {
			if r.CallIdx(i) != want {
				t.Fatalf("CallIdx(%d) = %d, want %d", i, r.CallIdx(i), want)
			}
		}
		if r.Edge(r.Len()) != nil {
			t.Fatal("Edge past the end must fail")
		}
		var tfe *cfa.TraceFormatError
		if !errors.As(r.Err(), &tfe) {
			t.Fatalf("out-of-range Edge error %T is not typed", r.Err())
		}
		if enc := encodeTrace(t, prog, got); !bytes.Equal(enc, data) {
			t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(enc), len(data))
		}
	})
}

// encodeTrace renders p as a PSTRC01 image in memory.
func encodeTrace(tb testing.TB, prog *cfa.Program, p cfa.Path) []byte {
	tb.Helper()
	var buf bytes.Buffer
	tw, err := cfa.NewTraceWriter(&buf, prog)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range p {
		if err := tw.Append(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
