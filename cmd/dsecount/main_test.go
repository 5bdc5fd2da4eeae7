package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/cli"
)

var update = flag.Bool("update", false, "rewrite testdata/count_golden.txt from the current output")

const countGoldenPath = "testdata/count_golden.txt"

// TestCountGolden runs the count in process and compares its full output
// with the checked-in golden; every count it prints is exact, so nothing
// is filtered. An intentional change regenerates the file with:
//
//	go test ./cmd/dsecount -run CountGolden -update
func TestCountGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(countGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("count output changed:\n--- got\n%s\n--- want\n%s", out.Bytes(), want)
	}
}

// TestFlagErrors pins the exit-code split main relies on: an unknown flag
// is a usage error and -h asks for help, and neither prints a count.
func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err != cli.ErrUsage {
		t.Fatalf("unknown flag: err = %v, want cli.ErrUsage", err)
	}
	if err := run([]string{"-h"}, &out); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if out.Len() != 0 {
		t.Fatalf("flag errors wrote to stdout: %q", out.String())
	}
}
