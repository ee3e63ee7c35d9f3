package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func storedJob(id string, state State, trials int) PersistedJob {
	return PersistedJob{
		ID:         id,
		Spec:       SubmitRequest{Benchmark: "b1"},
		State:      state,
		Created:    time.Unix(1700000000, 0).UTC(),
		TrialsDone: trials,
	}
}

// TestFileStoreJournalRoundTrip: per-job puts and deletes survive a
// reload without any full snapshot ever being written.
func TestFileStoreJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.SaveJob(storedJob("a", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("b", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("a", StateDone, 7)); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteJob("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot written before any compaction: %v", err)
	}

	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "a" || jobs[0].State != StateDone || jobs[0].TrialsDone != 7 {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestFileStoreCompaction: once compactThreshold records accumulate,
// the journal folds into an atomic snapshot and resets; nothing is
// lost across the fold or a subsequent reload.
func TestFileStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	total := compactThreshold + 10
	for i := 0; i < total; i++ {
		if err := f.SaveJob(storedJob(fmt.Sprintf("j%03d", i%8), StateDone, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot after crossing the threshold: %v", err)
	}
	data, err := os.ReadFile(path + ".journal")
	if err != nil {
		t.Fatalf("journal after compaction: %v", err)
	}
	if lines := bytes.Count(data, []byte{'\n'}); lines >= compactThreshold {
		t.Fatalf("journal kept %d records after compaction", lines)
	}

	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("reloaded %d jobs, want 8", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateDone {
			t.Fatalf("job %s state %s", j.ID, j.State)
		}
	}
}

// TestFileStoreTornJournalLine: a crash mid-append leaves a torn final
// record; Load keeps everything before it instead of failing.
func TestFileStoreTornJournalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.SaveJob(storedJob("a", StateDone, 3)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("b", StateCancelled, 1)); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(path+".journal", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"put":{"id":"c","sp`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatalf("torn journal line failed the load: %v", err)
	}
	if len(jobs) != 2 || jobs[0].ID != "a" || jobs[1].ID != "b" {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestFileStoreAppendAfterTornLine: records appended after a reload
// over a torn final line survive the next reload. The torn tail is
// trimmed at load, so a later append cannot extend the unterminated
// line and take every record after it down with it.
func TestFileStoreAppendAfterTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := NewFileStore(path).SaveJob(storedJob("a", StateRunning, 0)); err != nil {
		t.Fatal(err)
	}
	appendJournal(t, path, `{"put":{"id":"c","sp`)

	f := NewFileStore(path)
	if _, err := f.Load(); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("a", StateDone, 7)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("d", StateDone, 2)); err != nil {
		t.Fatal(err)
	}

	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "a" || jobs[0].State != StateDone || jobs[0].TrialsDone != 7 ||
		jobs[1].ID != "d" || jobs[1].State != StateDone {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestFileStoreMidJournalGarbage: an unreadable record with intact
// records after it is not a torn append; Load reports the corruption
// instead of silently dropping the records that follow.
func TestFileStoreMidJournalGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.SaveJob(storedJob("a", StateDone, 3)); err != nil {
		t.Fatal(err)
	}
	appendJournal(t, path, "{\"put\":{\"id\":\"c\",\"sp\n")
	if err := f.SaveJob(storedJob("b", StateDone, 1)); err != nil {
		t.Fatal(err)
	}
	if jobs, err := NewFileStore(path).Load(); err == nil {
		t.Fatalf("mid-journal garbage loaded without error: %+v", jobs)
	}
}

// appendJournal writes raw bytes to the end of path's journal.
func appendJournal(t *testing.T, path, raw string) {
	t.Helper()
	jf, err := os.OpenFile(path+".journal", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if _, err := jf.WriteString(raw); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreFullSaveSupersedesJournal: a full Save (shutdown path)
// compacts to a snapshot and drops the journal.
func TestFileStoreFullSaveSupersedesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.SaveJob(storedJob("a", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("b", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Save([]PersistedJob{storedJob("a", StateDone, 9)}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".journal"); !os.IsNotExist(err) {
		t.Fatalf("journal survived a full save: %v", err)
	}
	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "a" || jobs[0].TrialsDone != 9 {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestFileStoreSnapshotPlusJournalReplay: journal records layered over
// an existing snapshot win on reload (put upserts, delete removes).
func TestFileStoreSnapshotPlusJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.Save([]PersistedJob{
		storedJob("a", StateDone, 1),
		storedJob("b", StateDone, 2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("a", StateCancelled, 5)); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteJob("b"); err != nil {
		t.Fatal(err)
	}
	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "a" || jobs[0].State != StateCancelled || jobs[0].TrialsDone != 5 {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestFileStoreTruncatedAtEveryOffset cuts the journal and the
// snapshot at every byte offset. A cut journal must replay exactly the
// records whose newline made it to disk, and trim the torn rest; a cut
// snapshot must fail the load, never yield a partial table.
func TestFileStoreTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.json")
	f := NewFileStore(src)
	withReport := storedJob("c", StateDone, 9)
	withReport.Report = json.RawMessage(`{"id":"characterize","rows":[[{"text":"ok"}]]}`)
	entries := []journalEntry{
		{Put: ptr(storedJob("a", StateQueued, 0))},
		{Put: ptr(storedJob("b", StateRunning, 4))},
		{Put: ptr(storedJob("a", StateDone, 7))},
		{Put: &withReport},
		{Delete: "b"},
	}
	for _, e := range entries {
		var err error
		if e.Put != nil {
			err = f.SaveJob(*e.Put)
		} else {
			err = f.DeleteJob(e.Delete)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(src + ".journal")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "jobs.json")
	for cut := 0; cut <= len(journal); cut++ {
		if err := os.WriteFile(path+".journal", journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, err := NewFileStore(path).Load()
		if err != nil {
			t.Fatalf("journal cut at %d/%d: %v", cut, len(journal), err)
		}
		// The records whose newline lies inside the cut, replayed in
		// order, are the table Load must return.
		complete := bytes.Count(journal[:cut], []byte{'\n'})
		var want []PersistedJob
		for _, e := range entries[:complete] {
			i := slices.IndexFunc(want, func(j PersistedJob) bool {
				return j.ID == e.Delete || (e.Put != nil && j.ID == e.Put.ID)
			})
			switch {
			case e.Put != nil && i >= 0:
				want[i] = *e.Put
			case e.Put != nil:
				want = append(want, *e.Put)
			case i >= 0:
				want = slices.Delete(want, i, i+1)
			}
		}
		if !reflect.DeepEqual(jobs, want) {
			t.Fatalf("journal cut at %d/%d: loaded %+v, want %+v", cut, len(journal), jobs, want)
		}
		kept, err := os.ReadFile(path + ".journal")
		if err != nil {
			t.Fatal(err)
		}
		if end := bytes.LastIndexByte(journal[:cut], '\n') + 1; !bytes.Equal(kept, journal[:end]) {
			t.Fatalf("journal cut at %d/%d: torn tail not trimmed to the last record (%d bytes kept, want %d)",
				cut, len(journal), len(kept), end)
		}
	}

	if err := f.Save([]PersistedJob{storedJob("a", StateDone, 7), withReport}); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(path + ".journal")
	doc := bytes.TrimRight(snap, "\n")
	for cut := 0; cut < len(doc); cut++ {
		if err := os.WriteFile(path, snap[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if jobs, err := NewFileStore(path).Load(); err == nil {
			t.Fatalf("snapshot cut at %d/%d loaded without error: %+v", cut, len(doc), jobs)
		}
	}
}

// TestFileStoreCorruptedAtEveryOffset flips and overwrites every byte
// of a small journal and of a small snapshot. Each damaged file must
// load a clean prefix of what was written (for the journal: the records
// before the damaged one, when nothing follows it) or fail the load; it
// must never yield a job that was not written.
func TestFileStoreCorruptedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.json")
	f := NewFileStore(src)
	withReport := storedJob("c", StateDone, 9)
	withReport.Report = json.RawMessage(`{"id":"characterize","rows":[[{"text":"0.25"}]]}`)
	entries := []journalEntry{
		{Put: ptr(storedJob("a", StateQueued, 0))},
		{Put: ptr(storedJob("b", StateRunning, 4))},
		{Put: ptr(storedJob("a", StateDone, 7))},
		{Put: &withReport},
		{Delete: "b"},
	}
	for _, e := range entries {
		var err error
		if e.Put != nil {
			err = f.SaveJob(*e.Put)
		} else {
			err = f.DeleteJob(e.Delete)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(src + ".journal")
	if err != nil {
		t.Fatal(err)
	}
	// prefixes[k] is the table after the first k records.
	var prefixes [][]PersistedJob
	var table []PersistedJob
	for k := 0; ; k++ {
		prefixes = append(prefixes, slices.Clone(table))
		if k == len(entries) {
			break
		}
		e := entries[k]
		i := slices.IndexFunc(table, func(j PersistedJob) bool {
			return j.ID == e.Delete || (e.Put != nil && j.ID == e.Put.ID)
		})
		switch {
		case e.Put != nil && i >= 0:
			table[i] = *e.Put
		case e.Put != nil:
			table = append(table, *e.Put)
		default:
			table = slices.Delete(table, i, i+1)
		}
	}
	if err := f.Save(table); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "jobs.json")
	damage := func(file []byte, i int) [][]byte {
		var out [][]byte
		for _, b := range []byte{file[i] ^ 0x01, file[i] ^ 0x20, '0', '9', ' ', '\n', '"', '}'} {
			if b != file[i] {
				c := slices.Clone(file)
				c[i] = b
				out = append(out, c)
			}
		}
		return out
	}
	// The report endpoint re-indents a persisted report, so whitespace
	// inside one is not part of the job.
	compactReports := func(jobs []PersistedJob) []PersistedJob {
		for i, j := range jobs {
			var b bytes.Buffer
			if len(j.Report) > 0 && json.Compact(&b, j.Report) == nil {
				jobs[i].Report = b.Bytes()
			}
		}
		return jobs
	}
	check := func(what string, i int, allowed [][]PersistedJob) {
		t.Helper()
		jobs, err := NewFileStore(path).Load()
		if err != nil {
			return
		}
		for _, want := range allowed {
			if reflect.DeepEqual(compactReports(jobs), compactReports(want)) {
				return
			}
		}
		t.Fatalf("%s damaged at byte %d loaded a table that was never written: %+v", what, i, jobs)
	}
	for i := range journal {
		for _, bad := range damage(journal, i) {
			if err := os.WriteFile(path+".journal", bad, 0o644); err != nil {
				t.Fatal(err)
			}
			check("journal", i, prefixes)
		}
	}
	os.Remove(path + ".journal")
	for i := range snap {
		for _, bad := range damage(snap, i) {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			check("snapshot", i, [][]PersistedJob{table})
		}
	}
}

// TestFileStoreLoadsUncheckedFormat: a version-1 snapshot and journal
// lines written before records carried checksums still load, and new
// records append after them.
func TestFileStoreLoadsUncheckedFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	v1 := `{"version":1,"saved":"2024-01-01T00:00:00Z","jobs":[` +
		`{"id":"a","spec":{"benchmark":"b1"},"state":"done","created":"2023-11-14T22:13:20Z","trials_done":7}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := `{"put":{"id":"b","spec":{"benchmark":"b1"},"state":"running","created":"2023-11-14T22:13:20Z","trials_done":4}}` + "\n"
	if err := os.WriteFile(path+".journal", []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFileStore(path)
	jobs, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []PersistedJob{storedJob("a", StateDone, 7), storedJob("b", StateRunning, 4)}
	if !reflect.DeepEqual(jobs, want) {
		t.Fatalf("loaded %+v, want %+v", jobs, want)
	}
	if err := f.SaveJob(storedJob("b", StateDone, 5)); err != nil {
		t.Fatal(err)
	}
	want[1] = storedJob("b", StateDone, 5)
	if jobs, err := NewFileStore(path).Load(); err != nil || !reflect.DeepEqual(jobs, want) {
		t.Fatalf("reload after a checked append: %+v, %v", jobs, err)
	}
}

func ptr[T any](v T) *T { return &v }

// benchTable builds a job table shaped like a busy server: size
// finished jobs, each carrying a report of reportBytes raw JSON.
func benchTable(size, reportBytes int) []PersistedJob {
	report := json.RawMessage(`{"pad":"` + strings.Repeat("x", reportBytes) + `"}`)
	out := make([]PersistedJob, size)
	for i := range out {
		out[i] = storedJob(fmt.Sprintf("j%04d", i), StateDone, 40)
		out[i].Report = report
	}
	return out
}

// BenchmarkFileStorePerJobSave measures what one job state change now
// costs: a single journal append (amortizing periodic compaction).
func BenchmarkFileStorePerJobSave(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.json")
	f := NewFileStore(path)
	table := benchTable(256, 4096)
	if err := f.Save(table); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SaveJob(table[i%len(table)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileStoreFullSnapshot measures the former behavior: rewrite
// the whole table on every state change.
func BenchmarkFileStoreFullSnapshot(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.json")
	f := NewFileStore(path)
	table := benchTable(256, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Save(table); err != nil {
			b.Fatal(err)
		}
	}
}
