package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// invoke runs the command in-process with args and returns its exit
// status and standard output.
func invoke(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	stdout, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	savedArgs, savedFlags, savedOut, savedErr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = savedArgs, savedFlags, savedOut, savedErr }()
	os.Args = append([]string{"repro"}, args...)
	flag.CommandLine = flag.NewFlagSet("repro", flag.ContinueOnError)
	os.Stdout, os.Stderr = stdout, stderr
	code := run()
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// TestProfilesChangeNoOutput: -cpuprofile and -memprofile write profiles
// that parse as pprof profiles of the right kinds, and stdout, the .txt
// artifact and the -metrics snapshot are byte-identical with and without
// them.
func TestProfilesChangeNoOutput(t *testing.T) {
	dir := t.TempDir()
	outputs := func(name string, extra ...string) [][]byte {
		out := filepath.Join(dir, name)
		args := append([]string{"-exp", "fig1b", "-quick", "-jobs", "1", "-out", out,
			"-metrics", filepath.Join(out, "metrics.json")}, extra...)
		code, stdout := invoke(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit status %d", args, code)
		}
		got := [][]byte{stdout}
		for _, file := range []string{"fig1b.txt", "metrics.json"} {
			b, err := os.ReadFile(filepath.Join(out, file))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b)
		}
		return got
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plain := outputs("plain")
	profiled := outputs("profiled", "-cpuprofile", cpu, "-memprofile", mem)
	for i, what := range []string{"stdout", "fig1b.txt", "the -metrics snapshot"} {
		if !bytes.Equal(plain[i], profiled[i]) {
			t.Errorf("%s differs with profiling on", what)
		}
	}
	for path, want := range map[string][]string{
		cpu: {"samples", "count", "cpu", "nanoseconds"},
		mem: {"alloc_objects", "count", "alloc_space", "bytes", "inuse_objects", "count", "inuse_space", "bytes"},
	} {
		types := sampleTypes(t, path)
		if !slices.Equal(types, want) {
			t.Errorf("%s: sample types %q, want %q", filepath.Base(path), types, want)
		}
	}
}

// sampleTypes decodes the gzipped pprof profile at path (a
// perftools.profiles.Profile message) and returns its sample types' type
// and unit strings, in order. Any malformed field fails the test.
func sampleTypes(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	const sampleTypeField, stringTableField = 1, 6
	var valueTypes [][]byte // each a ValueType message: type (1), unit (2)
	var strs []string
	fields(t, msg, func(field uint64, data []byte) {
		switch field {
		case sampleTypeField:
			valueTypes = append(valueTypes, data)
		case stringTableField:
			strs = append(strs, string(data))
		}
	}, func(uint64, uint64) {})
	var out []string
	for _, vt := range valueTypes {
		fields(t, vt, func(uint64, []byte) {}, func(field, v uint64) {
			if v >= uint64(len(strs)) {
				t.Fatalf("%s: string index %d out of range", path, v)
			}
			out = append(out, strs[v])
		})
	}
	return out
}

// fields walks the protobuf message msg, passing each length-delimited
// field to bytesFn and each varint field to varintFn.
func fields(t *testing.T, msg []byte, bytesFn func(field uint64, data []byte), varintFn func(field, v uint64)) {
	t.Helper()
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			t.Fatal("malformed protobuf key")
		}
		msg = msg[n:]
		field := key >> 3
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				t.Fatalf("field %d: malformed varint", field)
			}
			varintFn(field, v)
			msg = msg[n:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				t.Fatalf("field %d: malformed length", field)
			}
			bytesFn(field, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		default:
			t.Fatalf("field %d: unexpected wire type %d", field, key&7)
		}
	}
}
