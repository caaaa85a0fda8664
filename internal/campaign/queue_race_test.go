package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueueConcurrentHammer drives Lease/Complete/Fail/Renew/ExpireLeases
// from many goroutines at once — with verification on, checks resolved or
// failed by concurrent checker goroutines, and an occasional divergent
// publish mixed in — and checks the invariants that must hold under any
// interleaving: every waiter receives exactly one outcome and no task
// ends with a live lease. Run under -race this also pins the queue's
// locking.
func TestQueueConcurrentHammer(t *testing.T) {
	const (
		cells   = 32
		workers = 8
	)
	q := NewQueue(40 * time.Millisecond) // short TTL: real expiries under load
	q.ConfigureVerification(0.5)         // mixed verified/unverified population
	q.ConfigureReputation(0, 0)          // hammer workers diverge on purpose; no quarantine

	chans := make([]chan Outcome, cells)
	for i := range chans {
		chans[i] = make(chan Outcome, 1)
		q.Enqueue(testCell(t, int64(i+1)), 4, 0, chans[i])
	}

	var delivered atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Collectors: one per waiter channel, asserting single delivery.
	for i, ch := range chans {
		wg.Add(1)
		go func(i int, ch chan Outcome) {
			defer wg.Done()
			select {
			case <-ch:
				delivered.Add(1)
			case <-time.After(30 * time.Second):
				t.Errorf("cell %d never received an outcome", i)
				return
			}
			select {
			case <-ch:
				t.Errorf("cell %d received a second outcome", i)
			case <-done:
			}
		}(i, ch)
	}

	// Expiry loop: requeues abandoned leases while the hammer runs.
	stopExpiry := make(chan struct{})
	var expiryWG sync.WaitGroup
	expiryWG.Add(1)
	go func() {
		defer expiryWG.Done()
		for {
			select {
			case <-stopExpiry:
				return
			case <-time.After(5 * time.Millisecond):
				q.ExpireLeases()
			}
		}
	}()

	// Checkers play the coordinator: every third check fails and requeues
	// its cell, the rest admit the canonical result.
	canonical := fakeResult(1)
	canonicalDigest, err := ResultDigest(canonical)
	if err != nil {
		t.Fatal(err)
	}
	checks := make(chan string)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				select {
				case <-done:
					return
				case digest := <-checks:
					if n%3 == 0 {
						q.CheckFailed(digest)
					} else {
						q.ResolveCheck(digest, canonicalDigest, canonical)
					}
				}
			}
		}()
	}
	check := func(out CompleteResult, digest string) {
		if out.Verdict == VerdictNeedCheck {
			select {
			case checks <- digest:
			case <-done:
			}
		}
	}

	// Worker goroutines: lease, then complete honestly, diverge, fail, or
	// abandon depending on a per-worker counter. Publishes of verified
	// cells are handed to the checkers.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			step := 0
			for delivered.Load() < cells {
				g, ok, err := q.Lease(name)
				if err != nil {
					t.Errorf("lease(%s): %v", name, err)
					return
				}
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				step++
				switch {
				case step%11 == 0:
					q.Fail(g.Lease, g.Digest, "injected failure")
				case step%7 == 0:
					// Abandon: walk away and let the TTL reap the lease.
				case step%5 == 0:
					// Divergent publish: self-consistent but wrong.
					q.Renew(g.Lease)
					check(q.Complete(honestPublish(t, g, fakeResult(666))), g.Digest)
				default:
					check(q.Complete(honestPublish(t, g, canonical)), g.Digest)
				}
			}
		}(w)
	}

	// Wait for all outcomes, then release the collectors' double-delivery
	// watch and the expiry loop.
	deadline := time.After(60 * time.Second)
	for delivered.Load() < cells {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d outcomes after 60s: %+v", delivered.Load(), cells, q.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	time.Sleep(20 * time.Millisecond) // window for any spurious second delivery
	close(done)
	close(stopExpiry)
	wg.Wait()
	expiryWG.Wait()

	st := q.Stats()
	if st.Completed+st.Failed != cells {
		t.Fatalf("Completed=%d Failed=%d, want them to sum to %d", st.Completed, st.Failed, cells)
	}
	if pending, leased := q.Depth(); pending != 0 || leased != 0 {
		t.Fatalf("queue depth = %d pending / %d leased after all outcomes delivered", pending, leased)
	}
	if st.VerifiedCells == 0 || st.Checks == 0 {
		t.Fatalf("check flow not exercised: %+v", st)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, tk := range q.tasks {
		if tk.lease != nil || tk.cand != nil {
			t.Fatalf("task %s ended in state %d with lease %v, candidate %v", short(tk.digest), tk.state, tk.lease, tk.cand)
		}
	}
}
