package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"secmgpu/internal/machine"
)

// FaultSpec configures seeded RPC fault injection. Each probability is
// evaluated per request, in the order the fields are declared; at most
// one fault fires per request, so the total faulty fraction is the sum
// of the probabilities.
type FaultSpec struct {
	// Seed makes the fault sequence reproducible (0 selects 1).
	Seed int64
	// Refuse is the probability the connection is refused before the
	// request reaches the server (the coordinator is down or restarting).
	Refuse float64
	// Timeout is the probability the request times out client-side
	// without reaching the server.
	Timeout float64
	// Err5xx is the probability a synthesized 503 comes back instead of
	// the server's answer (a dying proxy or an overloaded coordinator).
	Err5xx float64
	// Torn is the probability the server processes the request but the
	// response body is cut mid-stream — the nastiest case, because the
	// side effect landed and only the acknowledgement was lost.
	Torn float64
	// Dup is the probability the request is delivered twice (a retrying
	// middlebox); the second response is returned. Exercises endpoint
	// idempotency with the server really seeing the duplicate.
	Dup float64
}

// Enabled reports whether any fault has a non-zero probability.
func (f FaultSpec) Enabled() bool {
	return f.Refuse > 0 || f.Timeout > 0 || f.Err5xx > 0 || f.Torn > 0 || f.Dup > 0
}

// ParseFaultSpec parses a comma-separated spec such as
// "seed=7,refuse=0.05,timeout=0.02,err=0.05,torn=0.03,dup=0.05".
// Unknown keys are rejected so a typo disables nothing silently. An
// empty string is a valid all-zero spec.
func ParseFaultSpec(s string) (FaultSpec, error) {
	var spec FaultSpec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return spec, fmt.Errorf("campaign: fault spec term %q is not key=value", part)
		}
		if k == "seed" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("campaign: fault seed %q: %w", v, err)
			}
			spec.Seed = n
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return spec, fmt.Errorf("campaign: fault probability %s=%q out of [0,1]", k, v)
		}
		switch k {
		case "refuse":
			spec.Refuse = p
		case "timeout":
			spec.Timeout = p
		case "err":
			spec.Err5xx = p
		case "torn":
			spec.Torn = p
		case "dup":
			spec.Dup = p
		default:
			return spec, fmt.Errorf("campaign: unknown fault key %q", k)
		}
	}
	return spec, nil
}

// FaultStats counts injected faults since construction.
type FaultStats struct {
	Requests   int
	Refused    int
	TimedOut   int
	Injected5  int
	Torn       int
	Duplicated int
}

// Injected returns the total number of faults injected.
func (s FaultStats) Injected() int {
	return s.Refused + s.TimedOut + s.Injected5 + s.Torn + s.Duplicated
}

// FaultTransport is an http.RoundTripper that injects seeded,
// reproducible RPC faults into the traffic it carries: connection
// refusals and timeouts (request never sent), 5xx responses (server
// unreachable behind a proxy), torn response bodies (side effect landed,
// acknowledgement lost) and duplicated requests (idempotency probe). It
// is the network-layer sibling of the simulator's lossy-fabric
// injector: the campaign protocol must converge under both.
type FaultTransport struct {
	next http.RoundTripper

	mu    sync.Mutex
	rng   *rand.Rand
	spec  FaultSpec
	stats FaultStats
}

// NewFaultTransport wraps next (nil selects http.DefaultTransport) with
// fault injection per spec.
func NewFaultTransport(spec FaultSpec, next http.RoundTripper) *FaultTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultTransport{next: next, rng: rand.New(rand.NewSource(seed)), spec: spec}
}

// Stats returns a snapshot of the injection counters.
func (t *FaultTransport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// faultKind is the per-request injection decision.
type faultKind int

const (
	faultNone faultKind = iota
	faultRefuse
	faultTimeout
	fault5xx
	faultTorn
	faultDup
)

// draw picks at most one fault for a request, consuming exactly one
// random number so the sequence is independent of which faults are
// enabled.
func (t *FaultTransport) draw() faultKind {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Requests++
	p := t.rng.Float64()
	for _, f := range []struct {
		prob float64
		kind faultKind
	}{
		{t.spec.Refuse, faultRefuse},
		{t.spec.Timeout, faultTimeout},
		{t.spec.Err5xx, fault5xx},
		{t.spec.Torn, faultTorn},
		{t.spec.Dup, faultDup},
	} {
		if p < f.prob {
			switch f.kind {
			case faultRefuse:
				t.stats.Refused++
			case faultTimeout:
				t.stats.TimedOut++
			case fault5xx:
				t.stats.Injected5++
			case faultTorn:
				t.stats.Torn++
			case faultDup:
				t.stats.Duplicated++
			}
			return f.kind
		}
		p -= f.prob
	}
	return faultNone
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.draw() {
	case faultRefuse:
		drainAndClose(req.Body)
		return nil, fmt.Errorf("campaign: injected fault: connection refused")
	case faultTimeout:
		drainAndClose(req.Body)
		return nil, fmt.Errorf("campaign: injected fault: request timed out")
	case fault5xx:
		drainAndClose(req.Body)
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable (injected)",
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(bytes.NewReader([]byte(`{"error":"campaign: injected fault: 503"}`))),
			Request: req,
		}, nil
	case faultTorn:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &tornBody{r: resp.Body, remaining: 16}
		return resp, nil
	case faultDup:
		// Deliver the request twice; the caller sees only the second
		// response. Without req.GetBody (streaming bodies) the duplicate
		// cannot be replayed, so degrade to a single delivery.
		if req.Body == nil || req.GetBody != nil {
			first, err := t.next.RoundTrip(req)
			if err == nil {
				drainAndClose(first.Body)
				dup := req.Clone(req.Context())
				if req.GetBody != nil {
					body, err := req.GetBody()
					if err != nil {
						return nil, err
					}
					dup.Body = body
				}
				return t.next.RoundTrip(dup)
			}
			return first, err
		}
		return t.next.RoundTrip(req)
	}
	return t.next.RoundTrip(req)
}

// tornBody yields a prefix of the real body, then fails as if the
// connection died mid-response.
type tornBody struct {
	r         io.ReadCloser
	remaining int
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("campaign: injected fault: response torn mid-body")
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= n
	if err != nil {
		return n, err
	}
	if b.remaining <= 0 {
		return n, fmt.Errorf("campaign: injected fault: response torn mid-body")
	}
	return n, nil
}

func (b *tornBody) Close() error { return b.r.Close() }

// drainAndClose discards a request body on paths that never forward it;
// RoundTripper implementations must consume and close the body.
func drainAndClose(body io.ReadCloser) {
	if body == nil {
		return
	}
	io.Copy(io.Discard, body)
	body.Close()
}

// ByzantineSpec configures a seeded Byzantine worker: instead of losing
// messages (the FaultTransport's crash/omission model), it computes and
// then publishes wrong answers. Each probability is evaluated once per
// finished cell, in declared order; at most one behavior fires per cell.
// It exists to chaos-test the attestation/check/fencing defenses
// reproducibly — the defended coordinator must admit zero poisoned
// results with one of these in the fleet.
type ByzantineSpec struct {
	// Seed makes the misbehavior sequence reproducible (0 selects 1).
	Seed int64
	// Corrupt is the probability the worker publishes a deterministically
	// wrong result with a self-consistent attestation — the hardest case,
	// detectable only by the coordinator's own re-execution (a check).
	Corrupt float64
	// Lie is the probability the worker publishes the correct result but
	// attests a wrong digest — caught immediately by the attestation
	// check.
	Lie float64
	// Zombie is the probability the worker silences its heartbeat, waits
	// for the lease to expire, and publishes anyway — caught by fencing.
	Zombie float64
}

// Enabled reports whether any behavior has a non-zero probability.
func (b ByzantineSpec) Enabled() bool {
	return b.Corrupt > 0 || b.Lie > 0 || b.Zombie > 0
}

// ParseByzantineSpec parses a comma-separated spec such as
// "seed=3,corrupt=0.6,lie=0.2,zombie=0.1". Unknown keys are rejected so
// a typo disables nothing silently. An empty string is a valid all-zero
// spec.
func ParseByzantineSpec(s string) (ByzantineSpec, error) {
	var spec ByzantineSpec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return spec, fmt.Errorf("campaign: byzantine spec term %q is not key=value", part)
		}
		if k == "seed" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("campaign: byzantine seed %q: %w", v, err)
			}
			spec.Seed = n
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return spec, fmt.Errorf("campaign: byzantine probability %s=%q out of [0,1]", k, v)
		}
		switch k {
		case "corrupt":
			spec.Corrupt = p
		case "lie":
			spec.Lie = p
		case "zombie":
			spec.Zombie = p
		default:
			return spec, fmt.Errorf("campaign: unknown byzantine key %q", k)
		}
	}
	return spec, nil
}

// ByzantineStats counts injected misbehaviors since construction.
type ByzantineStats struct {
	Cells     int
	Corrupted int
	Lied      int
	Zombies   int
}

// Injected returns the total number of misbehaviors injected.
func (s ByzantineStats) Injected() int { return s.Corrupted + s.Lied + s.Zombies }

// byzKind is the per-cell misbehavior decision.
type byzKind int

const (
	byzNone byzKind = iota
	byzCorrupt
	byzLie
	byzZombie
)

// byzantine is the worker-side injector.
type byzantine struct {
	mu    sync.Mutex
	rng   *rand.Rand
	spec  ByzantineSpec
	stats ByzantineStats
}

// newByzantine returns an injector for spec (nil when disabled).
func newByzantine(spec ByzantineSpec) *byzantine {
	if !spec.Enabled() {
		return nil
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &byzantine{rng: rand.New(rand.NewSource(seed)), spec: spec}
}

// draw picks at most one misbehavior for a finished cell, consuming
// exactly one random number so the sequence is independent of which
// behaviors are enabled.
func (b *byzantine) draw() byzKind {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Cells++
	p := b.rng.Float64()
	for _, f := range []struct {
		prob float64
		kind byzKind
	}{
		{b.spec.Corrupt, byzCorrupt},
		{b.spec.Lie, byzLie},
		{b.spec.Zombie, byzZombie},
	} {
		if p < f.prob {
			switch f.kind {
			case byzCorrupt:
				b.stats.Corrupted++
			case byzLie:
				b.stats.Lied++
			case byzZombie:
				b.stats.Zombies++
			}
			return f.kind
		}
		p -= f.prob
	}
	return byzNone
}

// Stats returns a snapshot of the injection counters.
func (b *byzantine) Stats() ByzantineStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// corruptResult returns a copy of res with a deterministically wrong
// cycle count — plausible data, confidently wrong, never mutating the
// engine's cached original.
func corruptResult(res *machine.Result) *machine.Result {
	cp := *res
	cp.Cycles = cp.Cycles*2 + 12345
	return &cp
}

// lieDigest derives a well-formed but wrong attestation from the honest
// one.
func lieDigest(canonical string) string {
	if canonical == "" {
		return "00ff00ff00ff00ff"
	}
	b := []byte(canonical)
	if b[0] == '0' {
		b[0] = 'f'
	} else {
		b[0] = '0'
	}
	return string(b)
}
