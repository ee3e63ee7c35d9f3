package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// PersistedJob is the durable form of one job: everything needed to
// answer status and report queries after a restart. The report is kept
// as raw JSON (the exact object the report endpoint serves inside its
// one-element array), so persistence cannot drift from the wire format.
type PersistedJob struct {
	ID         string          `json:"id"`
	Spec       SubmitRequest   `json:"spec"`
	State      State           `json:"state"`
	Error      string          `json:"error,omitempty"`
	Created    time.Time       `json:"created"`
	Started    time.Time       `json:"started,omitempty"`
	Finished   time.Time       `json:"finished,omitempty"`
	TrialsDone int             `json:"trials_done"`
	RequestID  string          `json:"request_id,omitempty"`
	Report     json.RawMessage `json:"report,omitempty"`
}

// Store persists the job table. Load seeds the table once on startup,
// so a restarted server still answers for finished jobs; SaveJob
// records one job after each state change and DeleteJob drops an
// evicted one; Save writes a full snapshot at shutdown. FileStore is
// the implementation; a server without a Store keeps nothing across
// restarts.
//
// Implementations must be safe for concurrent use by one manager
// (Save/SaveJob/DeleteJob calls are serialized by the manager, Load
// happens once).
type Store interface {
	Load() ([]PersistedJob, error)
	SaveJob(PersistedJob) error
	DeleteJob(id string) error
	Save([]PersistedJob) error
}

// compactThreshold is how many journal records a FileStore accumulates
// before folding them into a fresh snapshot and truncating the journal.
const compactThreshold = 256

// FileStore persists the job table as a JSON snapshot plus an append
// journal ("<path>.journal", one JSON record per line). State changes
// append one record — O(1), instead of the former whole-table rewrite
// on every transition — and the journal folds into a fresh atomically
// renamed snapshot every compactThreshold records (and on every full
// Save, e.g. shutdown). Load replays the journal over the snapshot and
// trims a torn final record, so a crash mid-append loses at most the
// interrupted record, never the store or a later append.
//
// Every journal line and the snapshot's job table carry a CRC-32C
// checksum, so a corrupted byte anywhere fails the load (or, in the
// final journal record, drops that record like a torn append) instead
// of serving a silently wrong report. Journal lines and version-1
// snapshots written before checksums existed still load, unchecked.
type FileStore struct {
	path string

	mu      sync.Mutex
	journal *os.File       // open append handle, lazily created
	jobs    []PersistedJob // current table, snapshot ⊕ journal
	idx     map[string]int // job ID → index in jobs
	pending int            // journal records since the last snapshot
}

// NewFileStore creates a store writing to path. The file need not
// exist yet; its directory must.
func NewFileStore(path string) *FileStore {
	return &FileStore{path: path, idx: make(map[string]int)}
}

// journalPath is the sidecar append log.
func (f *FileStore) journalPath() string { return f.path + ".journal" }

// fileSnapshot is the on-disk envelope, versioned so a future format
// change can migrate instead of guessing. Version 2 adds Checksum, the
// CRC-32C of Jobs in compact form; version 1 has none.
type fileSnapshot struct {
	Version  int             `json:"version"`
	Saved    time.Time       `json:"saved"`
	Checksum string          `json:"checksum,omitempty"`
	Jobs     json.RawMessage `json:"jobs"`
}

// snapshotVersion is the envelope version FileStore writes.
const snapshotVersion = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the hex CRC-32C that guards a snapshot's job table or a
// journal record.
func checksum(b []byte) string { return fmt.Sprintf("%08x", crc32.Checksum(b, castagnoli)) }

// decodeSnapshot verifies and decodes a snapshot file.
func decodeSnapshot(data []byte) ([]PersistedJob, error) {
	var snap fileSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	switch snap.Version {
	case 1:
	case snapshotVersion:
		var compact bytes.Buffer
		if err := json.Compact(&compact, snap.Jobs); err != nil {
			return nil, err
		}
		if checksum(compact.Bytes()) != snap.Checksum {
			return nil, errors.New("job table checksum mismatch")
		}
	default:
		return nil, fmt.Errorf("unknown version %d", snap.Version)
	}
	var jobs []PersistedJob
	if err := json.Unmarshal(snap.Jobs, &jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// encodeRecord frames one journal record: its checksum, a space, and
// its JSON.
func encodeRecord(e journalEntry) ([]byte, error) {
	rec, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return append([]byte(checksum(rec)+" "), rec...), nil
}

// decodeRecord parses one journal line, verifying its checksum; a line
// that starts with the JSON itself predates checksums and is taken
// unchecked.
func decodeRecord(line []byte) (journalEntry, bool) {
	var e journalEntry
	if line[0] != '{' {
		if len(line) < 10 || line[8] != ' ' || string(line[:8]) != checksum(line[9:]) {
			return e, false
		}
		line = line[9:]
	}
	return e, json.Unmarshal(line, &e) == nil
}

// journalEntry is one journal line: an upsert or a deletion.
type journalEntry struct {
	Put    *PersistedJob `json:"put,omitempty"`
	Delete string        `json:"delete,omitempty"`
}

// Load reads the snapshot, replays the journal over it, and seeds the
// store's in-memory mirror. A missing file is an empty store, not an
// error. A torn trailing journal record (crash mid-append) is dropped
// and trimmed from the file; an unreadable record with intact records
// after it is an error, since skipping it would silently lose state.
func (f *FileStore) Load() ([]PersistedJob, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs, f.idx, f.pending = nil, make(map[string]int), 0

	data, err := os.ReadFile(f.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, fmt.Errorf("server: load job store: %w", err)
	default:
		jobs, err := decodeSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("server: job store %s is corrupt: %w", f.path, err)
		}
		for _, j := range jobs {
			f.upsertLocked(j)
		}
	}

	jdata, err := os.ReadFile(f.journalPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("server: load job journal: %w", err)
	}
	// A record counts once its newline is on disk. Replay stops at the
	// first unterminated or unparsable record; that is a torn append only
	// if nothing follows it, and the tail is then cut off so the next
	// append starts on a fresh line instead of extending the torn one.
	good := 0 // journal offset just past the last intact record
	for good < len(jdata) {
		n := bytes.IndexByte(jdata[good:], '\n')
		if n < 0 {
			break
		}
		line := bytes.TrimSpace(jdata[good : good+n])
		var e journalEntry
		ok := true
		if len(line) > 0 {
			e, ok = decodeRecord(line)
		}
		if !ok {
			if len(bytes.TrimSpace(jdata[good+n+1:])) > 0 {
				return nil, fmt.Errorf("server: job journal %s is corrupt at byte %d", f.journalPath(), good)
			}
			break
		}
		switch {
		case e.Put != nil:
			f.upsertLocked(*e.Put)
		case e.Delete != "":
			f.deleteLocked(e.Delete)
		}
		if len(line) > 0 {
			f.pending++
		}
		good += n + 1
	}
	if good < len(jdata) {
		if err := os.Truncate(f.journalPath(), int64(good)); err != nil {
			return nil, fmt.Errorf("server: trim torn job journal: %w", err)
		}
	}
	return append([]PersistedJob(nil), f.jobs...), nil
}

// upsertLocked replaces or appends one job in the mirror, preserving
// first-seen order. Callers hold f.mu.
func (f *FileStore) upsertLocked(j PersistedJob) {
	if i, ok := f.idx[j.ID]; ok {
		f.jobs[i] = j
		return
	}
	f.idx[j.ID] = len(f.jobs)
	f.jobs = append(f.jobs, j)
}

// deleteLocked removes one job from the mirror. Callers hold f.mu.
func (f *FileStore) deleteLocked(id string) {
	i, ok := f.idx[id]
	if !ok {
		return
	}
	f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
	delete(f.idx, id)
	for k := i; k < len(f.jobs); k++ {
		f.idx[f.jobs[k].ID] = k
	}
}

// SaveJob appends one upsert to the journal, compacting into a fresh
// snapshot once enough records accumulate.
func (f *FileStore) SaveJob(j PersistedJob) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.upsertLocked(j)
	return f.appendLocked(journalEntry{Put: &j})
}

// DeleteJob appends one deletion to the journal.
func (f *FileStore) DeleteJob(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deleteLocked(id)
	return f.appendLocked(journalEntry{Delete: id})
}

// appendLocked writes one journal record and compacts past the
// threshold. Callers hold f.mu.
func (f *FileStore) appendLocked(e journalEntry) error {
	if f.journal == nil {
		jf, err := os.OpenFile(f.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("server: open job journal: %w", err)
		}
		f.journal = jf
	}
	line, err := encodeRecord(e)
	if err != nil {
		return fmt.Errorf("server: encode job journal record: %w", err)
	}
	if _, err := f.journal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("server: append job journal: %w", err)
	}
	f.pending++
	if f.pending >= compactThreshold {
		return f.compactLocked()
	}
	return nil
}

// Save atomically replaces the snapshot file with the given table and
// truncates the journal (the snapshot supersedes it).
func (f *FileStore) Save(jobs []PersistedJob) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs, f.idx = nil, make(map[string]int)
	for _, j := range jobs {
		f.upsertLocked(j)
	}
	return f.compactLocked()
}

// compactLocked writes the mirror as an atomic snapshot, then resets
// the journal. Snapshot-then-truncate order keeps a crash between the
// two harmless: replaying the stale journal over the new snapshot is a
// sequence of idempotent upserts/deletes. Callers hold f.mu.
func (f *FileStore) compactLocked() error {
	if err := f.writeSnapshotLocked(); err != nil {
		return err
	}
	if f.journal != nil {
		f.journal.Close()
		f.journal = nil
	}
	if err := os.Remove(f.journalPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("server: truncate job journal: %w", err)
	}
	f.pending = 0
	return nil
}

// writeSnapshotLocked atomically replaces the snapshot file (temp file
// + rename) so a crash mid-save never corrupts the previous snapshot.
// Callers hold f.mu.
func (f *FileStore) writeSnapshotLocked() error {
	jobs, err := json.Marshal(f.jobs)
	if err != nil {
		return fmt.Errorf("server: encode job store: %w", err)
	}
	data, err := json.MarshalIndent(fileSnapshot{
		Version: snapshotVersion, Saved: time.Now().UTC(), Checksum: checksum(jobs), Jobs: jobs,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode job store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(f.path), filepath.Base(f.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("server: save job store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("server: save job store: %w", werr)
		}
		return fmt.Errorf("server: save job store: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), f.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: save job store: %w", err)
	}
	return nil
}
