package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Record types appearing in a run journal.
const (
	// RecRun is the journal header: the campaign's identity and digests.
	RecRun = "run"
	// RecResume marks a later invocation appending to the same journal.
	RecResume = "resume"
	// RecStart marks a cell simulation attempt beginning.
	RecStart = "start"
	// RecDone marks a cell simulated successfully (and persisted, when a
	// store is attached).
	RecDone = "done"
	// RecRestored marks a cell served from the durable store without
	// simulating.
	RecRestored = "restored"
	// RecFailed marks a simulation attempt that errored (the cell may
	// still succeed on a later attempt).
	RecFailed = "failed"
)

// RunInfo identifies a campaign: what was asked for and which simulator
// ran it. A resumed run must present identical parameters (Verify);
// the simulator digest is advisory — a mismatch means persisted entries
// will invalidate and re-simulate, not that resuming is wrong.
type RunInfo struct {
	ID        string   `json:"id"`
	SimDigest string   `json:"sim,omitempty"`
	Exps      []string `json:"exps,omitempty"`
	GPUs      int      `json:"gpus,omitempty"`
	Scale     float64  `json:"scale,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
}

// ParamsDigest hashes the campaign parameters that must match for a
// resume to be meaningful (everything except the simulator digest,
// which has its own invalidation path).
func (r RunInfo) ParamsDigest() string {
	r.SimDigest = ""
	d, err := DigestJSON(r)
	if err != nil {
		return "unhashable"
	}
	return d
}

// ErrParamsMismatch is wrapped by Verify when a resume presents different
// campaign parameters than the journal records; match it with errors.Is.
var ErrParamsMismatch = errors.New("run parameters mismatch")

// Verify reports whether other describes the same campaign. A parameter
// mismatch satisfies errors.Is(err, ErrParamsMismatch) and names each
// differing field with the journaled and requested values, so the
// operator can see exactly what changed.
func (r RunInfo) Verify(other RunInfo) error {
	if r.ID != other.ID {
		return fmt.Errorf("store: journal is for run %q, not %q", r.ID, other.ID)
	}
	if r.ParamsDigest() == other.ParamsDigest() {
		return nil
	}
	diffs := r.diff(other)
	if len(diffs) == 0 {
		// The digests disagree but no named field does (e.g. a future
		// field this version cannot decode); still refuse, just less
		// specifically.
		diffs = []string{"undecodable field difference"}
	}
	return fmt.Errorf("store: run %q: %w: %s; start a new run instead of resuming",
		r.ID, ErrParamsMismatch, strings.Join(diffs, ", "))
}

// diff lists the campaign parameters on which r (the journal) and other
// (the resume request) disagree, formatted "field: journal -> requested".
func (r RunInfo) diff(other RunInfo) []string {
	var diffs []string
	add := func(field string, journal, requested any) {
		diffs = append(diffs, fmt.Sprintf("%s: %v -> %v", field, journal, requested))
	}
	if !slices.Equal(r.Exps, other.Exps) {
		add("experiments", r.Exps, other.Exps)
	}
	if r.GPUs != other.GPUs {
		add("gpus", r.GPUs, other.GPUs)
	}
	if r.Scale != other.Scale {
		add("scale", r.Scale, other.Scale)
	}
	if r.Seed != other.Seed {
		add("seed", r.Seed, other.Seed)
	}
	if !slices.Equal(r.Workloads, other.Workloads) {
		add("workloads", r.Workloads, other.Workloads)
	}
	return diffs
}

// Record is one journal line. Cell records carry the cell's key digest
// and label; every record carries a truncated self-checksum (C) so a
// bit-flipped line is detected on replay instead of trusted.
type Record struct {
	T       string   `json:"t"`
	Run     *RunInfo `json:"run,omitempty"`
	Cell    string   `json:"cell,omitempty"`
	Label   string   `json:"label,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Millis  int64    `json:"ms,omitempty"`
	Err     string   `json:"err,omitempty"`
	C       string   `json:"c,omitempty"`
}

// checksum returns the record's self-checksum: SHA-256 over its JSON
// encoding with C cleared, truncated for line economy.
func (r Record) checksum() string {
	r.C = ""
	b, err := json.Marshal(r)
	if err != nil {
		return "unhashable"
	}
	return lineSum(b)
}

func lineSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// verifyLine reports whether line, a record as Append wrote it, matches
// its self-checksum c. The sum is recomputed over the written bytes
// minus the trailing "c" member — exactly what Append hashed — rather
// than over a re-encoding of the decoded Record, so a record carrying a
// field this build no longer declares (such as an older binary's
// "simworkers" run parameter) still verifies.
func verifyLine(line []byte, c string) bool {
	body, ok := bytes.CutSuffix(line, []byte(`,"c":"`+c+`"}`))
	if !ok {
		return false
	}
	return lineSum(append(body[:len(body):len(body)], '}')) == c
}

// Journal is a per-run append-only JSONL write-ahead log. Each append
// is fsynced, so every record before a SIGKILL survives and at most the
// final record is torn (which Replay tolerates). A nil *Journal is a
// valid no-op sink, so callers journal unconditionally.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error
}

// CreateJournal starts a new journal at path with a RecRun header. It
// refuses to overwrite an existing journal: run IDs are one campaign
// each, and resuming goes through OpenJournalAppend.
func CreateJournal(path string, info RunInfo) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("store: journal %s already exists (resume it, or pick a new run ID)", path)
		}
		return nil, err
	}
	j := &Journal{f: f, path: path}
	if err := j.Append(Record{T: RecRun, Run: &info}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournalAppend opens an existing journal for appending (resume)
// and records a RecResume header for this invocation.
func OpenJournalAppend(path string, info RunInfo) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// A torn final record has no newline; terminate it so this
	// invocation's records start on a fresh line and the torn one stays
	// isolated (Replay counts it corrupt, nothing else is damaged).
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, err
		}
	}
	j := &Journal{f: f, path: path}
	if err := j.Append(Record{T: RecResume, Run: &info}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Append checksums and writes one record, fsyncing it to disk. Errors
// are sticky and returned (also from Err); journaling failures must
// never fail the sweep itself, so callers may ignore them and surface
// Err once at the end.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	rec.C = rec.checksum()
	b, err := json.Marshal(rec)
	if err != nil {
		j.err = err
		return err
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		j.err = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Err returns the first append failure, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// CellMark is the replayed status of one cell.
type CellMark struct {
	Label   string
	Attempt int
	Err     string
}

// Replay is the reconstructed state of a run journal.
type Replay struct {
	// Info is the RecRun header.
	Info RunInfo
	// Done maps completed cells (simulated successfully in some
	// invocation) by key digest.
	Done map[string]CellMark
	// Restored maps cells a resumed invocation served from the store.
	Restored map[string]CellMark
	// Failed maps cells whose latest outcome was a failed final attempt
	// (cells that later succeeded are removed).
	Failed map[string]CellMark
	// Started maps cells with at least one attempt on record.
	Started map[string]CellMark
	// Resumes counts RecResume headers.
	Resumes int
	// Records counts verified records replayed.
	Records int
	// Corrupt counts lines that failed to decode or checksum —
	// quarantined in place (skipped), never trusted. A torn final
	// record from a SIGKILL lands here.
	Corrupt int
}

// ReplayJournal reads a journal and reconstructs the run's state. It
// tolerates a torn or bit-flipped record anywhere in the file (counted
// in Corrupt, skipped) and never panics on arbitrary bytes; it errors
// only if the file is unreadable or no valid RecRun header survives.
func ReplayJournal(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	rep := &Replay{
		Done:     make(map[string]CellMark),
		Restored: make(map[string]CellMark),
		Failed:   make(map[string]CellMark),
		Started:  make(map[string]CellMark),
	}
	sawHeader := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			rep.Corrupt++
			continue
		}
		if !verifyLine(line, rec.C) {
			rep.Corrupt++
			continue
		}
		rep.Records++
		mark := CellMark{Label: rec.Label, Attempt: rec.Attempt, Err: rec.Err}
		switch rec.T {
		case RecRun:
			if !sawHeader && rec.Run != nil {
				rep.Info = *rec.Run
				sawHeader = true
			}
		case RecResume:
			rep.Resumes++
		case RecStart:
			rep.Started[rec.Cell] = mark
		case RecDone:
			rep.Done[rec.Cell] = mark
			delete(rep.Failed, rec.Cell)
		case RecRestored:
			rep.Restored[rec.Cell] = mark
		case RecFailed:
			if _, ok := rep.Done[rec.Cell]; !ok {
				rep.Failed[rec.Cell] = mark
			}
		}
	}
	if err := sc.Err(); err != nil {
		// An over-long garbage line is corruption, not a replay error.
		rep.Corrupt++
	}
	if !sawHeader {
		return nil, fmt.Errorf("store: journal %s has no valid run header", path)
	}
	return rep, nil
}
