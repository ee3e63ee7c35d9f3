package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"etap"
)

// TestJSONMatchesServedReport: etcamp and the HTTP service build the
// same characterize report for the same job, so etcamp's JSON is byte
// for byte the report the service serves.
func TestJSONMatchesServedReport(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-app", "adpcm", "-mode", "protected", "-errors", "1,4", "-trials", "8", "-seed", "3", "-format", "json"}
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}

	srv, err := etap.NewServer(etap.WithServeWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"adpcm","errors":[1,4],"trials":8,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || ack.ID == "" {
		t.Fatalf("submit: %d, %v", resp.StatusCode, err)
	}
	// The event stream ends after the job's terminal event.
	resp, err = http.Get(hs.URL + "/api/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only
	resp.Body.Close()
	resp, err = http.Get(hs.URL + "/api/v1/jobs/" + ack.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d, %v", resp.StatusCode, err)
	}
	if !bytes.Equal(out.Bytes(), served) {
		t.Fatalf("etcamp JSON differs from the served report:\n%s\nvs\n%s", out.String(), served)
	}
}

// TestBothModesCSV: -mode both writes one CSV block per mode, each row
// keyed by its mode.
func TestBothModesCSV(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-app", "adpcm", "-mode", "both", "-errors", "0,5", "-trials", "8", "-format", "csv"}
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSpace(out.String()), "\n\n")
	if len(blocks) != 2 {
		t.Fatalf("want 2 CSV blocks, got %d:\n%s", len(blocks), out.String())
	}
	for i, mode := range []string{"protected", "unprotected"} {
		lines := strings.Split(blocks[i], "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[0], "report,app,mode,errors,") {
			t.Fatalf("block %d: want a keyed header and 2 rows:\n%s", i, blocks[i])
		}
		for _, l := range lines[1:] {
			if !strings.HasPrefix(l, "characterize,adpcm,"+mode+",") {
				t.Fatalf("block %d: row not keyed by mode %s: %s", i, mode, l)
			}
		}
	}
}
