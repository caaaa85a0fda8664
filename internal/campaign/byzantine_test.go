package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// ---- queue-level units: attestation, fencing, checks, reputation ----

func TestQueueAttestationMismatchRequeues(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), 1, 0, ch)

	g, _ := mustLease(t, q, "liar")
	pub := honestPublish(t, g, fakeResult(42))
	pub.ResultDigest = lieDigest(pub.ResultDigest)
	out := q.Complete(pub)
	if out.Verdict != VerdictDigestMismatch {
		t.Fatalf("lying attestation verdict = %s, want digest mismatch", out.Verdict)
	}
	select {
	case <-ch:
		t.Fatal("mis-attested publish delivered an outcome")
	default:
	}

	// The cell requeues without burning an attempt — the work is fine,
	// the publisher is not.
	g2, ok := mustLease(t, q, "honest")
	if !ok {
		t.Fatal("mis-attested cell did not requeue")
	}
	if g2.Attempt != 1 {
		t.Fatalf("attempt after mis-attestation = %d, want 1", g2.Attempt)
	}
	if out := q.Complete(honestPublish(t, g2, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("honest publish verdict = %s, want admitted", out.Verdict)
	}
	st := q.Stats()
	if st.DigestMismatches != 1 || st.Completed != 1 {
		t.Fatalf("DigestMismatches=%d Completed=%d, want 1/1", st.DigestMismatches, st.Completed)
	}
	for _, w := range q.Workers() {
		if w.Name == "liar" && w.Divergent != 1 {
			t.Fatalf("liar divergence strikes = %d, want 1", w.Divergent)
		}
	}
}

func TestQueueFenceForgeryDoesNotEvictHolder(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), 1, 0, ch)

	g, _ := mustLease(t, q, "holder")
	forged := honestPublish(t, g, fakeResult(99))
	forged.Fence = "0123456789abcdef0123456789abcdef"
	if out := q.Complete(forged); out.Verdict != VerdictFenceMismatch {
		t.Fatalf("forged-fence verdict = %s, want fence mismatch", out.Verdict)
	}
	select {
	case <-ch:
		t.Fatal("forged publish delivered an outcome")
	default:
	}

	// The legitimate holder's lease survived the forgery attempt.
	if out := q.Complete(honestPublish(t, g, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("holder's publish verdict = %s, want admitted", out.Verdict)
	}
	if st := q.Stats(); st.FenceMismatches != 1 || st.Completed != 1 {
		t.Fatalf("FenceMismatches=%d Completed=%d, want 1/1", st.FenceMismatches, st.Completed)
	}
}

// TestQueueQuorumDivergenceEscalatesToArbiter: a verified cell's publish
// is held as its one candidate while the coordinator checks it; the
// coordinator's own result is admitted, a differing candidate is struck
// and an agreeing one is credited.
func TestQueueQuorumDivergenceEscalatesToArbiter(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1)
	honest := fakeResult(42)
	honestDigest, err := ResultDigest(honest)
	if err != nil {
		t.Fatal(err)
	}

	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)
	g, _ := mustLease(t, q, "evil")
	out := q.Complete(honestPublish(t, g, fakeResult(666))) // self-consistent but wrong
	if out.Verdict != VerdictNeedCheck || out.Verdict.Rejected() {
		t.Fatalf("verified publish verdict = %s, want an accepted check", out.Verdict)
	}
	if out.Cell.Label == "" {
		t.Fatal("check verdict carried no cell to re-execute")
	}
	select {
	case <-ch:
		t.Fatal("outcome delivered before the check")
	default:
	}
	// While checking, the cell is not leasable.
	if _, ok := mustLease(t, q, "w3"); ok {
		t.Fatal("cell under check was leased out")
	}
	// The coordinator re-executes locally; its own result is admitted.
	res, ok := q.ResolveCheck(digest, honestDigest, honest)
	if !ok || res.Verdict != VerdictAdmitted {
		t.Fatalf("ResolveCheck = (%+v, %v), want admitted", res, ok)
	}
	if out := <-ch; out.Err != nil || out.ResDigest != honestDigest {
		t.Fatalf("checked admission = (%s, %v), want the coordinator's result", short(out.ResDigest), out.Err)
	}
	if _, ok := q.ResolveCheck(digest, honestDigest, honest); ok {
		t.Fatal("a second resolve of a done task reported ok")
	}

	// An agreeing candidate is credited.
	ch2 := make(chan Outcome, 1)
	digest2, _ := q.Enqueue(testCell(t, 2), 1, 0, ch2)
	g2, _ := mustLease(t, q, "honest")
	q.Complete(honestPublish(t, g2, honest))
	if _, ok := q.ResolveCheck(digest2, honestDigest, honest); !ok {
		t.Fatal("agreeing check not resolved")
	}
	<-ch2

	st := q.Stats()
	if st.VerifiedCells != 2 || st.Checks != 2 || st.DivergentChecks != 1 || st.Leased != 2 {
		t.Fatalf("stats = %+v, want 2 verified cells, 2 leases, 2 checks, 1 divergent", st)
	}
	for _, w := range q.Workers() {
		switch w.Name {
		case "evil":
			if w.Divergent != 1 || w.Completed != 0 {
				t.Fatalf("evil ledger = %+v, want one strike and no credit", w)
			}
		case "honest":
			if w.Divergent != 0 || w.Completed != 1 {
				t.Fatalf("honest ledger = %+v, want credit and no strikes", w)
			}
		}
	}
}

// TestQueueCheckFailureKeepsAttempt: a coordinator-side check failure
// clears the candidate and requeues the cell without burning an attempt,
// even on a one-attempt budget.
func TestQueueCheckFailureKeepsAttempt(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)

	g, _ := mustLease(t, q, "w1")
	if out := q.Complete(honestPublish(t, g, fakeResult(42))); out.Verdict != VerdictNeedCheck {
		t.Fatalf("verdict = %s, want need check", out.Verdict)
	}
	q.CheckFailed(digest)
	g2, ok := mustLease(t, q, "w1")
	if !ok || g2.Digest != digest {
		t.Fatalf("failed check did not requeue the cell: (%+v, %v)", g2, ok)
	}
	if g2.Attempt != g.Attempt {
		t.Fatalf("attempt after a failed check = %d, want %d", g2.Attempt, g.Attempt)
	}
	q.Complete(honestPublish(t, g2, fakeResult(42)))
	d, _ := ResultDigest(fakeResult(42))
	if _, ok := q.ResolveCheck(digest, d, fakeResult(42)); !ok {
		t.Fatal("second check not resolved")
	}
	if out := <-ch; out.Err != nil {
		t.Fatalf("outcome after a failed check: %v", out.Err)
	}
}

// TestQueueDuplicateCandidateDuringCheck: a retried RPC of the candidate's
// publish while the check runs is a benign duplicate, not a zombie.
func TestQueueDuplicateCandidateDuringCheck(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)

	g, _ := mustLease(t, q, "w1")
	pub := honestPublish(t, g, fakeResult(42))
	if out := q.Complete(pub); out.Verdict != VerdictNeedCheck {
		t.Fatalf("verdict = %s, want need check", out.Verdict)
	}
	if out := q.Complete(pub); out.Verdict != VerdictDuplicate {
		t.Fatalf("retried candidate publish verdict = %s, want duplicate", out.Verdict)
	}
	q.ResolveCheck(digest, pub.Canonical, pub.Result)
	<-ch
	st := q.Stats()
	if st.LatePublishes != 1 || st.ZombiePublishes != 0 || st.Checks != 1 {
		t.Fatalf("stats = %+v, want 1 late publish, no zombies, 1 check", st)
	}
	for _, w := range q.Workers() {
		if w.Name == "w1" && (w.Divergent != 0 || w.Zombies != 0 || w.Completed != 1) {
			t.Fatalf("w1 ledger = %+v, want one credit and no strikes", w)
		}
	}
}

// TestQueueRequeueForcesReverification: divergence evidence or scrub
// damage sends a done cell to the coordinator's check directly — no
// worker lease — and dedup hits wait for its result.
func TestQueueRequeueForcesReverification(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)
	g, _ := mustLease(t, q, "w1")
	q.Complete(honestPublish(t, g, fakeResult(42)))
	<-ch

	cell, ok := q.Requeue(digest)
	if !ok || cell.Label == "" {
		t.Fatalf("Requeue of a done task = (%+v, %v)", cell, ok)
	}
	if _, ok := q.Requeue("feedfeed"); ok {
		t.Fatal("Requeue of an unknown digest reported ok")
	}
	if _, ok := q.Requeue(digest); ok {
		t.Fatal("Requeue of a task already under check reported ok")
	}
	if _, ok := mustLease(t, q, "w2"); ok {
		t.Fatal("a cell sent back for a check was leased to a worker")
	}
	late := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), 1, 0, late)
	select {
	case <-late:
		t.Fatal("dedup hit served the stale result during the check")
	default:
	}

	fresh := fakeResult(43)
	d, _ := ResultDigest(fresh)
	if out, ok := q.ResolveCheck(digest, d, fresh); !ok || out.Verdict != VerdictAdmitted || out.Waiters != 1 {
		t.Fatalf("ResolveCheck = (%+v, %v), want admitted to 1 waiter", out, ok)
	}
	if out := <-late; out.ResDigest != d {
		t.Fatalf("dedup waiter got %s, want the check's %s", short(out.ResDigest), short(d))
	}
	st := q.Stats()
	if st.Reverifies != 1 || st.VerifiedCells != 1 || st.Checks != 1 || st.Leased != 1 {
		t.Fatalf("stats = %+v, want 1 reverify, 1 verified cell, 1 check, 1 lease", st)
	}
}

func TestQueueReputationQuarantinesDivergentWorker(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureReputation(2, 0) // two divergence strikes
	var hookWorker, hookReason string
	q.OnQuarantine(func(w, r string) { hookWorker, hookReason = w, r })

	// Two cells, two lying attestations.
	for seed := int64(1); seed <= 2; seed++ {
		ch := make(chan Outcome, 1)
		q.Enqueue(testCell(t, seed), 1, 0, ch)
		g, ok, err := q.Lease("liar")
		if err != nil || !ok {
			t.Fatalf("lease %d: ok=%v err=%v", seed, ok, err)
		}
		pub := honestPublish(t, g, fakeResult(uint64(seed)))
		pub.ResultDigest = lieDigest(pub.ResultDigest)
		if out := q.Complete(pub); out.Verdict != VerdictDigestMismatch {
			t.Fatalf("lie %d verdict = %s", seed, out.Verdict)
		}
	}

	if hookWorker != "liar" || hookReason == "" {
		t.Fatalf("quarantine hook saw (%q, %q)", hookWorker, hookReason)
	}
	if _, _, err := q.Lease("liar"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("quarantined lease err = %v, want ErrWorkerQuarantined", err)
	}
	st := q.Stats()
	if st.WorkersQuarantined != 1 {
		t.Fatalf("WorkersQuarantined = %d, want 1", st.WorkersQuarantined)
	}
	// Honest workers still lease; the two lied-about cells are pending.
	if _, ok := mustLease(t, q, "honest"); !ok {
		t.Fatal("honest worker blocked by someone else's quarantine")
	}
}

func TestQueueZombieLimitQuarantinesAndDrainsLeases(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	q.ConfigureReputation(0, 1) // one zombie strike
	chA := make(chan Outcome, 1)
	chB := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), 1, 0, chA)
	q.Enqueue(testCell(t, 2), 1, 0, chB)

	gA, _ := mustLease(t, q, "zombie")
	gB, _ := mustLease(t, q, "zombie") // second cell held concurrently
	clock.advance(2 * time.Second)
	q.ExpireLeases()
	// Re-lease cell A elsewhere so the zombie's publish hits unfinished
	// work under a dead lease.
	if _, ok := mustLease(t, q, "healthy"); !ok {
		t.Fatal("expired cell not re-leasable")
	}
	if out := q.Complete(honestPublish(t, gA, fakeResult(1))); out.Verdict != VerdictZombie {
		t.Fatalf("zombie publish verdict = %s", out.Verdict)
	}
	if _, _, err := q.Lease("zombie"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("zombie lease err = %v, want ErrWorkerQuarantined", err)
	}
	// Both of the zombie's leases are gone (B was already expired; either
	// way a later publish under it is fenced).
	if out := q.Complete(honestPublish(t, gB, fakeResult(2))); out.Verdict != VerdictZombie {
		t.Fatalf("drained-lease publish verdict = %s, want zombie", out.Verdict)
	}
}

func TestParseByzantineSpec(t *testing.T) {
	spec, err := ParseByzantineSpec("seed=3,corrupt=0.6,lie=0.2,zombie=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 3 || spec.Corrupt != 0.6 || spec.Lie != 0.2 || spec.Zombie != 0.1 {
		t.Fatalf("spec = %+v", spec)
	}
	if !spec.Enabled() {
		t.Fatal("non-zero spec not enabled")
	}
	if empty, err := ParseByzantineSpec(""); err != nil || empty.Enabled() {
		t.Fatalf("empty spec = (%+v, %v)", empty, err)
	}
	for _, bad := range []string{"corrupt=2", "corrupt=-0.1", "corupt=0.5", "corrupt", "seed=x"} {
		if _, err := ParseByzantineSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// The injector consumes one draw per cell regardless of outcome.
	b := newByzantine(ByzantineSpec{Seed: 7, Corrupt: 0.5, Lie: 0.25})
	for i := 0; i < 100; i++ {
		b.draw()
	}
	bs := b.Stats()
	if bs.Cells != 100 || bs.Injected() == 0 || bs.Injected() == 100 {
		t.Fatalf("injector stats = %+v, want a mixed sequence over 100 cells", bs)
	}
}

// ---- worker / coordinator integration ----

func TestWorkerRunExitsOnQuarantine(t *testing.T) {
	coord, client, _ := newService(t, time.Minute)
	coord.Queue().QuarantineWorker("pariah", "operator action")

	w := NewWorker(client, WorkerOptions{Name: "pariah", Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.Run(ctx)
	if !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("Run = %v, want ErrWorkerQuarantined", err)
	}
	if ctx.Err() != nil {
		t.Fatal("worker polled until the deadline instead of treating the 403 as terminal")
	}
}

func TestQuarantineSurvivesCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{Store: st, LeaseTTL: time.Minute, DivergenceLimit: 1, Logf: t.Logf})

	ch := make(chan Outcome, 1)
	q := coord.Queue()
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)
	g, ok, err := q.Lease("evil")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	res := fakeResult(9)
	attest, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	// One lying attestation at limit 1: quarantined, and the quarantine
	// is journaled through the coordinator's hook.
	out := coord.Complete(g.Lease, g.Fence, digest, g.Cell.Label, lieDigest(attest), res)
	if out.Verdict != VerdictDigestMismatch {
		t.Fatalf("verdict = %s, want digest mismatch", out.Verdict)
	}
	if _, _, err := q.Lease("evil"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("pre-restart lease err = %v", err)
	}
	coord.Close()

	st2, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(Options{Store: st2, LeaseTTL: time.Minute, Logf: t.Logf})
	defer coord2.Close()
	if _, _, err := coord2.Queue().Lease("evil"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("post-restart lease err = %v, want ErrWorkerQuarantined (quarantine lost across restart)", err)
	}
}

// TestGrantHidesVerification: a verified cell's grant carries the same
// JSON keys as an unverified one's, so a worker cannot tell which of its
// cells the coordinator checks. Grants carrying keys this worker does
// not know, such as an older coordinator's verify flag, still decode.
func TestGrantHidesVerification(t *testing.T) {
	keys := func(fraction float64) []string {
		q := NewQueue(time.Minute)
		q.ConfigureVerification(fraction)
		q.Enqueue(testCell(t, 1), 1, 0, make(chan Outcome, 1))
		g, ok := mustLease(t, q, "w1")
		if !ok {
			t.Fatal("no grant")
		}
		if got := q.Stats().VerifiedCells; got != int(fraction) {
			t.Fatalf("fraction %v: VerifiedCells = %d", fraction, got)
		}
		rec := httptest.NewRecorder()
		writeGrant(rec, g)
		var m map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if verified, plain := keys(1), keys(0); !slices.Equal(verified, plain) {
		t.Fatalf("verified grant keys %v, unverified %v", verified, plain)
	}
	var wg wireGrant
	if err := json.Unmarshal([]byte(`{"lease":"l1","digest":"d","verify":true,"future_key":1,"attempt":2}`), &wg); err != nil || wg.Attempt != 2 {
		t.Fatalf("older grant decoded to (%+v, %v)", wg, err)
	}
}

// TestSingleWorkerCheckedCampaignLeasesOnce: with one worker and every
// cell verified, each verified cell is leased exactly once — the worker
// executes it and the coordinator checks it.
func TestSingleWorkerCheckedCampaignLeasesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	coord, client, _ := newLimitedService(t, Options{VerifyFraction: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	wctx, wcancel := context.WithCancel(ctx)
	worker := NewWorker(client, WorkerOptions{Name: "solo", Logf: t.Logf})
	workerDone := make(chan struct{})
	go func() { worker.Run(wctx); close(workerDone) }()
	defer func() { wcancel(); <-workerDone }()

	sub, err := client.Submit(ctx, runningSpec())
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, sub.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (errors: %v)", final.State, final.ExperimentErrors)
	}
	qs := coord.Queue().Stats()
	if qs.VerifiedCells == 0 || qs.Leased != qs.VerifiedCells || qs.Checks != qs.VerifiedCells || qs.DivergentChecks != 0 {
		t.Fatalf("stats = %+v, want Leased == Checks == VerifiedCells > 0 and no divergence", qs)
	}
}

// TestByzantineCampaignEndToEnd is the tentpole scenario: an actively
// malicious worker (every result corrupted, attestations self-consistent)
// shares the fleet with an honest one under full verification. The
// campaign must converge to byte-identical tables, admit zero poisoned
// objects, check every verified cell, and quarantine the attacker if it
// ever got a publish accepted.
func TestByzantineCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	st, err := store.Open(t.TempDir(), store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{
		Store: st, LeaseTTL: time.Minute, Logf: t.Logf,
		VerifyFraction: 1, DivergenceLimit: 1,
	})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { srv.Close(); coord.Close() })
	client := NewClient(srv.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	honest := NewWorker(client, WorkerOptions{Name: "honest", Store: st, Logf: t.Logf})
	go honest.Run(wctx)
	// The byzantine worker gets NO store handle: a malicious process
	// inside the store's trust boundary could poison objects directly —
	// the defense boundary is the publish API.
	evil := NewWorker(client, WorkerOptions{
		Name:      "evil",
		Byzantine: ByzantineSpec{Seed: 3, Corrupt: 1},
		Logf:      t.Logf,
	})
	evilDone := make(chan error, 1)
	go func() { evilDone <- evil.Run(wctx) }()

	spec := Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02}
	sub, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, sub.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (errors: %v)", final.State, final.ExperimentErrors)
	}

	// Byte-identical to a single-process run: zero poison reached the
	// tables.
	tables, err := client.Tables(ctx, sub.ID)
	if err != nil || len(tables) != 1 {
		t.Fatalf("tables = %d (err %v), want 1", len(tables), err)
	}
	p := spec.withDefaults().params()
	p.Engine = sweep.New(0)
	ref, err := experiments.Fig9(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].Text != ref.String() {
		t.Fatalf("byzantine-fleet table differs from single-process run:\n--- campaign ---\n%s--- reference ---\n%s",
			tables[0].Text, ref.String())
	}

	// Zero poisoned objects at rest.
	rep, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("store scrub found %d corrupt objects after the campaign: %+v", rep.Quarantined, rep.Bad)
	}

	qs := coord.Queue().Stats()
	if qs.VerifiedCells == 0 || qs.Checks < qs.VerifiedCells {
		t.Fatalf("verification did not run: %+v", qs)
	}
	if evil.Stats().Completed > 0 {
		// The attacker got publishes accepted for checking; its
		// divergence must have been caught and punished.
		if qs.DivergentChecks+qs.DivergentPublishes == 0 {
			t.Fatalf("evil published %d corrupt results but no divergence was recorded: %+v",
				evil.Stats().Completed, qs)
		}
		health, err := client.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if health.Quarantined == 0 {
			t.Fatalf("evil published but was not quarantined: workers = %+v", health.Workers)
		}
		wcancel()
		select {
		case err := <-evilDone:
			if !errors.Is(err, ErrWorkerQuarantined) && !errors.Is(err, context.Canceled) {
				t.Fatalf("evil worker Run = %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("evil worker did not exit")
		}
	}
}
