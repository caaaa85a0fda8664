package store_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmgpu/internal/store"
)

func testInfo() store.RunInfo {
	return store.RunInfo{
		ID: "t1", SimDigest: "sim1", Exps: []string{"fig21"},
		GPUs: 4, Scale: 0.02, Seed: 1, Workloads: []string{"mm"},
	}
}

func TestJournalCreateAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{
		{T: store.RecStart, Cell: "aa", Label: "mm", Attempt: 1},
		{T: store.RecDone, Cell: "aa", Label: "mm", Millis: 12},
		{T: store.RecStart, Cell: "bb", Label: "syr2k", Attempt: 1},
		{T: store.RecFailed, Cell: "bb", Label: "syr2k", Attempt: 1, Err: "boom"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Info.ID != "t1" || rep.Info.SimDigest != "sim1" {
		t.Errorf("replayed info=%+v", rep.Info)
	}
	if rep.Corrupt != 0 || rep.Records != len(recs)+1 {
		t.Errorf("records=%d corrupt=%d, want %d/0", rep.Records, rep.Corrupt, len(recs)+1)
	}
	if _, ok := rep.Done["aa"]; !ok {
		t.Error("done cell missing")
	}
	if m, ok := rep.Failed["bb"]; !ok || m.Err != "boom" {
		t.Errorf("failed cell=%+v ok=%v", m, ok)
	}
	if len(rep.Started) != 2 {
		t.Errorf("started=%d, want 2", len(rep.Started))
	}
}

func TestDoneClearsEarlierFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecFailed, Cell: "aa", Attempt: 1, Err: "transient"})
	j.Append(store.Record{T: store.RecDone, Cell: "aa"})
	j.Close()
	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Errorf("failed=%v after a later success", rep.Failed)
	}
	if _, ok := rep.Done["aa"]; !ok {
		t.Error("done cell missing")
	}
}

func TestTornFinalRecordToleratedAndResumable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecDone, Cell: "aa", Label: "mm"})
	j.Close()

	// SIGKILL mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"t":"done","cell":"bb","c":"tr`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Errorf("corrupt=%d, want 1 (the torn record)", rep.Corrupt)
	}
	if _, ok := rep.Done["aa"]; !ok {
		t.Error("intact record lost")
	}
	if _, ok := rep.Done["bb"]; ok {
		t.Error("torn record trusted")
	}

	// Resume appends cleanly past the torn bytes.
	j2, err := store.OpenJournalAppend(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(store.Record{T: store.RecDone, Cell: "cc", Label: "pr"})
	j2.Close()
	rep, err = store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumes != 1 || rep.Corrupt != 1 {
		t.Errorf("resumes=%d corrupt=%d, want 1/1", rep.Resumes, rep.Corrupt)
	}
	if _, ok := rep.Done["cc"]; !ok {
		t.Error("post-resume record lost")
	}
}

func TestBitFlippedRecordSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecDone, Cell: "aa"})
	j.Append(store.Record{T: store.RecDone, Cell: "bb"})
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle line's cell digest while keeping valid JSON:
	// the checksum must catch it.
	mut := strings.Replace(string(data), `"cell":"aa"`, `"cell":"xx"`, 1)
	if mut == string(data) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Errorf("corrupt=%d, want 1", rep.Corrupt)
	}
	if _, ok := rep.Done["xx"]; ok {
		t.Error("bit-flipped record trusted")
	}
	if _, ok := rep.Done["bb"]; !ok {
		t.Error("record after the corrupt line lost")
	}
}

func TestDuplicatedRecordsAreIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j.Append(store.Record{T: store.RecDone, Cell: "aa", Label: "mm"})
	}
	j.Close()
	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 1 || rep.Corrupt != 0 {
		t.Errorf("done=%d corrupt=%d, want 1/0", len(rep.Done), rep.Corrupt)
	}
}

func TestCreateRefusesExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := store.CreateJournal(path, testInfo()); err == nil {
		t.Fatal("overwrote an existing run journal")
	}
}

func TestRunInfoVerify(t *testing.T) {
	a := testInfo()
	if err := a.Verify(a); err != nil {
		t.Errorf("identical params rejected: %v", err)
	}
	// A different simulator digest is NOT a params mismatch (it has its
	// own invalidation path in the store).
	b := a
	b.SimDigest = "other"
	if err := a.Verify(b); err != nil {
		t.Errorf("sim digest change rejected resume: %v", err)
	}
	c := a
	c.Scale = 0.5
	if err := a.Verify(c); err == nil {
		t.Error("scale change accepted")
	}
	d := a
	d.Exps = []string{"fig8"}
	if err := a.Verify(d); err == nil {
		t.Error("experiment-list change accepted")
	}
	e := a
	e.ID = "t2"
	if err := a.Verify(e); err == nil {
		t.Error("run-ID change accepted")
	}
}

// parentJournal is a run journal written by an older binary whose run
// header still recorded the simulation-kernel worker count
// ("simworkers"), a parameter this build no longer has.
const parentJournal = `{"t":"run","run":{"id":"old","sim":"58eb849c586d3731c25fd4dfa928b5b62958900aee37e0158f03610b615a7b4e","exps":["fig12"],"gpus":4,"scale":0.02,"seed":1,"workloads":["mm"],"simworkers":8},"c":"61ed15b64f697fa4"}
{"t":"start","cell":"469638b840f4d8b0fd95634591050ca9bd8358d1c082ec450dad4cc0d375410b","label":"mm under Unsecure","attempt":1,"c":"1cd718f80b531e40"}
{"t":"done","cell":"469638b840f4d8b0fd95634591050ca9bd8358d1c082ec450dad4cc0d375410b","label":"mm under Unsecure","ms":16,"c":"714b57e96eb097bb"}
`

// TestParentJournalWithKernelChoiceResumes checks that a journal carrying
// the retired "simworkers" field verifies record by record, resumes
// under the same parameters, and that the checksum still covers every
// written byte: an injected field makes the record corrupt.
func TestParentJournalWithKernelChoiceResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	if err := os.WriteFile(path, []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Records != 3 || len(rep.Done) != 1 {
		t.Fatalf("records=%d corrupt=%d done=%d, want 3/0/1", rep.Records, rep.Corrupt, len(rep.Done))
	}
	info := store.RunInfo{
		ID: "old", SimDigest: "rebuilt", Exps: []string{"fig12"},
		GPUs: 4, Scale: 0.02, Seed: 1, Workloads: []string{"mm"},
	}
	if err := rep.Info.Verify(info); err != nil {
		t.Fatalf("resume of a journal with simworkers refused: %v", err)
	}
	j, err := store.OpenJournalAppend(path, info)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecRestored, Cell: "aa"})
	j.Close()
	if rep, err = store.ReplayJournal(path); err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Resumes != 1 || len(rep.Restored) != 1 {
		t.Errorf("after resume: corrupt=%d resumes=%d restored=%d, want 0/1/1", rep.Corrupt, rep.Resumes, len(rep.Restored))
	}

	injected := strings.Replace(parentJournal, `"ms":16,`, `"ms":16,"x":1,`, 1)
	if err := os.WriteFile(path, []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err = store.ReplayJournal(path); err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || len(rep.Done) != 0 {
		t.Errorf("injected field: corrupt=%d done=%d, want 1/0", rep.Corrupt, len(rep.Done))
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *store.Journal
	if err := j.Append(store.Record{T: store.RecDone}); err != nil {
		t.Error(err)
	}
	if err := j.Err(); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	if p := j.Path(); p != "" {
		t.Errorf("nil journal path %q", p)
	}
}
