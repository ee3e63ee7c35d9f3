package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

// pinArgs is the pinned coverage run: one application, one policy, a
// small trial budget.
var pinArgs = []string{"-app", "adpcm", "-policy", "control+addr", "-trials", "8", "-seed", "3"}

// TestCoverageTableGolden: the coverage table, in text and CSV, is byte
// for byte the one in testdata, and the differential gate's stderr line
// reports the same protected sites and overheads.
func TestCoverageTableGolden(t *testing.T) {
	for _, tc := range []struct {
		format, golden string
	}{
		{"text", "testdata/adpcm.txt"},
		{"csv", "testdata/adpcm.csv"},
	} {
		t.Run(tc.format, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := append(append([]string{}, pinArgs...), "-format", tc.format)
			if err := run(context.Background(), args, &out, &errOut); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("output differs from %s:\n%s\nwant:\n%s", tc.golden, out.Bytes(), want)
			}
			const gate = "[adpcm/control+addr] verified bit-identical; 259 protected sites (259 duplicated, 222 checks), overhead 5.22x static 4.69x dynamic\n"
			if !strings.HasPrefix(errOut.String(), gate) {
				t.Fatalf("stderr does not start with the gate line %q:\n%s", gate, errOut.String())
			}
		})
	}
}

// TestHardenUsageErrors: bad flags are usage errors (exit 2), not runtime
// failures.
func TestHardenUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "adpcm", "-transforms", "bogus"},
		{"-app", "adpcm", "-trials", "0"},
	} {
		err := run(context.Background(), args, io.Discard, io.Discard)
		if _, ok := err.(usageError); !ok {
			t.Errorf("%v: got %v (%T), want a usageError", args, err, err)
		}
	}
}
