package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newHoldService serves a store-less coordinator over httptest. Cleanup
// closes the coordinator first, which answers any still-held lease
// request, so the server's close never waits out a hold.
func newHoldService(t *testing.T) (*Coordinator, string) {
	t.Helper()
	coord := NewCoordinator(Options{LeaseTTL: time.Minute, Logf: t.Logf})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { coord.Close(); srv.Close() })
	return coord, srv.URL
}

// rawLease posts one lease request asking for a hold of waitMS and
// returns the response with its body drained.
func rawLease(ctx context.Context, url, worker string, waitMS int64) (*http.Response, error) {
	body, err := json.Marshal(leaseRequest{Worker: worker, WaitMS: waitMS})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp, nil
}

// waitHeld returns once some lease request has taken the queue's ready
// signal, i.e. found nothing to grant and is about to wait.
func waitHeld(t *testing.T, q *Queue) {
	t.Helper()
	deadline := time.Now().Add(leaseHold / 2)
	for {
		q.mu.Lock()
		held := q.ready != nil
		q.mu.Unlock()
		if held {
			// Let the request get from its fruitless Lease into the wait.
			time.Sleep(20 * time.Millisecond)
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease request ever waited on the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

type leaseAnswer struct {
	g   Grant
	ok  bool
	err error
}

// heldLease starts a Client.Lease (which asks for the full hold) in the
// background.
func heldLease(client *Client, worker string) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	go func() {
		g, ok, err := client.Lease(context.Background(), worker)
		out <- leaseAnswer{g, ok, err}
	}()
	return out
}

// awaitGrant expects the held lease to be answered with a grant for
// digest well inside the hold.
func awaitGrant(t *testing.T, answers <-chan leaseAnswer, digest string) Grant {
	t.Helper()
	select {
	case a := <-answers:
		if a.err != nil || !a.ok {
			t.Fatalf("held lease answered ok=%v err=%v, want a grant", a.ok, a.err)
		}
		if a.g.Digest != digest {
			t.Fatalf("held lease granted %s, want %s", short(a.g.Digest), short(digest))
		}
		return a.g
	case <-time.After(leaseHold / 2):
		t.Fatal("held lease not answered well inside the hold")
	}
	return Grant{}
}

// TestHeldLeaseWakesOnEnqueue: a lease request blocked on an empty queue
// receives a cell enqueued after it blocked, long before its hold ends.
func TestHeldLeaseWakesOnEnqueue(t *testing.T) {
	coord, url := newHoldService(t)
	answers := heldLease(NewClient(url, nil), "w1")
	waitHeld(t, coord.Queue())
	digest, _ := coord.Queue().Enqueue(testCell(t, 1), 1, 0, make(chan Outcome, 1))
	awaitGrant(t, answers, digest)
}

// TestLeaseWithoutHoldAnswersAtOnce: wait_ms 0 keeps the old protocol (an
// immediate 204 on an empty queue), and a hold that runs out answers 204.
func TestLeaseWithoutHoldAnswersAtOnce(t *testing.T) {
	_, url := newHoldService(t)
	ctx := context.Background()

	start := time.Now()
	resp, err := rawLease(ctx, url, "w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent || time.Since(start) > leaseHold/4 {
		t.Fatalf("wait_ms=0: status %d after %v, want an immediate 204", resp.StatusCode, time.Since(start))
	}

	const hold = 50 * time.Millisecond
	start = time.Now()
	resp, err = rawLease(ctx, url, "w1", hold.Milliseconds())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent || time.Since(start) < hold {
		t.Fatalf("wait_ms=%d: status %d after %v, want 204 once the hold ends",
			hold.Milliseconds(), resp.StatusCode, time.Since(start))
	}
}

// TestQueueReadySignals: every path that makes a task pending closes the
// channel Ready handed out; granting and admitting do not.
func TestQueueReadySignals(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	fired := func(ready <-chan struct{}) bool {
		select {
		case <-ready:
			return true
		default:
			return false
		}
	}
	expect := func(what string, want bool, ready <-chan struct{}) {
		t.Helper()
		if got := fired(ready); got != want {
			t.Fatalf("%s: ready fired = %v, want %v", what, got, want)
		}
	}

	ready := q.Ready()
	q.Enqueue(testCell(t, 1), 3, 0, make(chan Outcome, 1))
	expect("enqueue", true, ready)

	ready = q.Ready()
	g, _ := mustLease(t, q, "w1")
	expect("lease", false, ready)
	clock.advance(2 * time.Second)
	q.ExpireLeases()
	expect("lease expiry", true, ready)

	g, _ = mustLease(t, q, "w1")
	ready = q.Ready()
	q.Fail(g.Lease, g.Digest, "boom")
	expect("fail with retries left", true, ready)

	g, _ = mustLease(t, q, "w1")
	ready = q.Ready()
	q.Complete(honestPublish(t, g, fakeResult(1)))
	expect("admission", false, ready)
	q.Requeue(g.Digest)
	expect("coordinator check of a done task", false, ready)
	q.CheckFailed(g.Digest)
	expect("failed check", true, ready)

	q = NewQueue(time.Second)
	q.Enqueue(testCell(t, 2), 1, 0, make(chan Outcome, 1))
	g, _ = mustLease(t, q, "w1")
	q.Fail(g.Lease, g.Digest, "boom") // budget 1: the task fails
	ready = q.Ready()
	q.Enqueue(testCell(t, 2), 1, 0, make(chan Outcome, 1))
	expect("revived failed task", true, ready)
}

// TestRequeueWakesHeldLease: a cell returning to pending — lease expiry,
// a failure with retries left, a failed coordinator check — reaches a
// worker already blocked on the empty queue.
func TestRequeueWakesHeldLease(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verify  bool // publish the leased cell for a check before the hold starts
		trigger func(q *Queue, clock *fakeClock, g Grant)
	}{
		{"expiry", false, func(q *Queue, clock *fakeClock, g Grant) {
			clock.advance(2 * time.Minute)
			q.ExpireLeases()
		}},
		{"fail", false, func(q *Queue, clock *fakeClock, g Grant) {
			q.Fail(g.Lease, g.Digest, "transient")
		}},
		{"checkfail", true, func(q *Queue, clock *fakeClock, g Grant) {
			q.CheckFailed(g.Digest)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, url := newHoldService(t)
			clock := newFakeClock()
			q := withClock(coord.Queue(), clock)
			if tc.verify {
				q.ConfigureVerification(1)
			}
			q.Enqueue(testCell(t, 1), 2, 0, make(chan Outcome, 1))
			g, ok := mustLease(t, q, "w1")
			if !ok {
				t.Fatal("no grant")
			}
			if tc.verify {
				q.Complete(honestPublish(t, g, fakeResult(1)))
			}
			answers := heldLease(NewClient(url, nil), "w2")
			waitHeld(t, q)
			tc.trigger(q, clock, g)
			awaitGrant(t, answers, g.Digest)
		})
	}
}

// TestHeldLeaseWokenByExpiryLoop: a silent worker's lease lapses on a
// short-TTL coordinator, and a worker already held on the empty queue
// receives the cell through the expiry loop alone — nothing else polls
// the queue on its behalf.
func TestHeldLeaseWokenByExpiryLoop(t *testing.T) {
	coord := NewCoordinator(Options{LeaseTTL: 200 * time.Millisecond, Logf: t.Logf})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { coord.Close(); srv.Close() })
	q := coord.Queue()
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, make(chan Outcome, 1))
	if _, ok := mustLease(t, q, "w1"); !ok { // w1 goes silent
		t.Fatal("no grant")
	}
	answers := heldLease(NewClient(srv.URL, nil), "w2")
	waitHeld(t, q)
	if g := awaitGrant(t, answers, digest); g.Attempt != 1 {
		t.Fatalf("re-leased attempt = %d, want 1 (expiry burns no attempt)", g.Attempt)
	}
	if st := q.Stats(); st.Expired == 0 || st.Leased != 2 {
		t.Fatalf("stats = %+v, want an expiry and 2 leases", st)
	}
}

// TestQuarantinedWorkerRefusedWithoutHold: a quarantined worker asking
// for a hold gets its 403 at once.
func TestQuarantinedWorkerRefusedWithoutHold(t *testing.T) {
	coord, url := newHoldService(t)
	coord.Queue().QuarantineWorker("pariah", "operator action")
	select {
	case a := <-heldLease(NewClient(url, nil), "pariah"):
		if !errors.Is(a.err, ErrWorkerQuarantined) {
			t.Fatalf("lease err = %v, want ErrWorkerQuarantined", a.err)
		}
	case <-time.After(leaseHold / 2):
		t.Fatal("quarantined worker was held instead of refused")
	}
}

// TestDrainAnswersHeldLease: starting a drain answers a held lease with
// 503 + Retry-After at once.
func TestDrainAnswersHeldLease(t *testing.T) {
	coord, url := newHoldService(t)
	type answer struct {
		resp *http.Response
		err  error
	}
	answers := make(chan answer, 1)
	go func() {
		resp, err := rawLease(context.Background(), url, "w1", leaseHold.Milliseconds())
		answers <- answer{resp, err}
	}()
	waitHeld(t, coord.Queue())
	if err := coord.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case a := <-answers:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.resp.StatusCode != http.StatusServiceUnavailable || a.resp.Header.Get("Retry-After") == "" {
			t.Fatalf("held lease answered %d (Retry-After %q), want 503 with a hint",
				a.resp.StatusCode, a.resp.Header.Get("Retry-After"))
		}
	case <-time.After(leaseHold / 2):
		t.Fatal("drain left a lease request held")
	}
}

// TestServeStopsPromptlyWithHeldLease: cancelling Serve's context while
// a lease request is held shuts the server down without waiting out the
// hold (nor Serve's 5s shutdown bound).
func TestServeStopsPromptlyWithHeldLease(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "", Options{Listener: ln, LeaseTTL: time.Minute, Logf: t.Logf}) }()

	held := make(chan error, 1)
	go func() {
		resp, err := rawLease(context.Background(), "http://"+ln.Addr().String(), "w1", leaseHold.Milliseconds())
		if err == nil && resp.StatusCode != http.StatusServiceUnavailable {
			err = errors.New("held lease answered " + resp.Status + ", want 503")
		}
		held <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach its hold
	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve = %v, want context.Canceled", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Serve still shutting down: the held lease was not released")
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestCancelledLeaseFreesHandler: a client giving up on a held lease
// ends its handler instead of leaving it parked for the rest of the hold.
func TestCancelledLeaseFreesHandler(t *testing.T) {
	coord := NewCoordinator(Options{LeaseTTL: time.Minute, Logf: t.Logf})
	api := coord.Handler()
	returned := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if r.URL.Path == "/v1/lease" {
			returned <- struct{}{}
		}
	}))
	t.Cleanup(func() { coord.Close(); srv.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := rawLease(ctx, srv.URL, "w1", leaseHold.Milliseconds())
		errc <- err
	}()
	waitHeld(t, coord.Queue())
	cancel()
	select {
	case <-returned:
	case <-time.After(leaseHold / 2):
		t.Fatal("lease handler still held after its client cancelled")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
}
