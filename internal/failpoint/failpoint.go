// Package failpoint is a deterministic fault-injection registry for
// the I/O and cluster hot paths: named sites in production code call
// Eval, and tests (or an operator running the chaos tier) arm per-site
// policies — error, error-once, error-every-N, delay, torn-write —
// that decide when the site fires.
//
// The registry is process-global and zero-cost when disarmed: Eval is
// one atomic load and an immediate nil return until the first Set/Arm
// registers a site (allocation- and benchmark-asserted in the package
// tests), so sites can live on fsync/append/dispatch paths without a
// build tag.
//
// Activation:
//
//   - programmatic: failpoint.Set("wal-append", "torn=8,once"), or
//     failpoint.Arm("wal-append=error;seg-rename=error-once") for
//     several sites at once
//   - environment: LSCR_FAILPOINTS with the same multi-site spec,
//     parsed at process init (the CLIs need no flag plumbing)
//
// Spec grammar — comma-separated terms, one mode plus optional gates:
//
//	error            fail with an injected error (the default mode)
//	error-once       fail on the first hit, then disarm (sugar: error,once)
//	error-every=N    fail on every Nth hit (sugar: error,every=N)
//	torn=K           fail like error, telling write sites to persist
//	                 only the first K bytes (a crash mid-write)
//	delay=D          sleep D per firing instead of failing (time.Duration)
//	once             gate: disarm the site after its first firing
//	every=N          gate: fire only on hits N, 2N, 3N…
//	p=F              gate: fire with probability F, from a per-site rand
//	                 seeded by Seed()^hash(site) — schedules replay
//	                 identically for a fixed seed
//
// Injected failures are *Failure values satisfying errors.Is(err,
// ErrInjected), so callers up the stack can tell injected faults from
// real ones.
package failpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected failure wraps.
var ErrInjected = errors.New("failpoint: injected fault")

// Failure is one injected fault. It is the error a failing site
// returns; Torn >= 0 additionally tells a write site to persist only
// the first Torn bytes before failing (simulating a crash mid-write).
type Failure struct {
	// Site names the failpoint that fired.
	Site string
	// Torn is the byte prefix a write site should persist before
	// failing; -1 means fail without writing anything.
	Torn int
}

func (f *Failure) Error() string { return "failpoint: injected fault at " + f.Site }

// Is makes errors.Is(err, ErrInjected) true for every injected fault.
func (f *Failure) Is(target error) bool { return target == ErrInjected }

// policy is one armed site's state. Counters and the rng serialize on
// mu; the registry lock is only held for lookup.
type policy struct {
	site  string
	mode  byte // 'e' error, 'd' delay
	torn  int  // -1 unless torn=K
	delay time.Duration
	once  bool
	every int64
	p     float64

	mu       sync.Mutex
	hits     int64
	fired    int64
	disarmed bool
	rng      *rand.Rand // non-nil only when p is set
}

var (
	// armed counts registered sites: the disabled fast path is this one
	// atomic load.
	armed atomic.Int64

	mu       sync.RWMutex
	registry = map[string]*policy{}
	seed     atomic.Int64
)

func init() {
	seed.Store(1)
	if s := os.Getenv("LSCR_FAILPOINT_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed.Store(v)
		}
	}
	if spec := os.Getenv("LSCR_FAILPOINTS"); spec != "" {
		if err := Arm(spec); err != nil {
			// Env activation has no error channel; a bad spec must not be
			// silently ignored into a green fault-free run.
			panic(fmt.Sprintf("failpoint: bad LSCR_FAILPOINTS: %v", err))
		}
	}
}

// Enabled reports whether any site is armed — the same check Eval's
// fast path makes.
func Enabled() bool { return armed.Load() != 0 }

// Eval is the hook production code places at a site: nil means proceed
// normally. With no site armed it is one atomic load and returns
// immediately, allocation-free. A delay policy sleeps here and returns
// nil; an error/torn policy returns the *Failure to surface.
func Eval(site string) *Failure {
	if armed.Load() == 0 {
		return nil
	}
	return eval(site)
}

func eval(site string) *Failure {
	mu.RLock()
	p := registry[site]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	return p.eval()
}

func (p *policy) eval() *Failure {
	p.mu.Lock()
	if p.disarmed {
		p.mu.Unlock()
		return nil
	}
	p.hits++
	if p.every > 1 && p.hits%p.every != 0 {
		p.mu.Unlock()
		return nil
	}
	if p.rng != nil && p.rng.Float64() >= p.p {
		p.mu.Unlock()
		return nil
	}
	p.fired++
	if p.once {
		p.disarmed = true
	}
	mode, torn, delay := p.mode, p.torn, p.delay
	p.mu.Unlock()

	if mode == 'd' {
		time.Sleep(delay)
		return nil
	}
	return &Failure{Site: p.site, Torn: torn}
}

// Set arms (or replaces) one site's policy from a spec string (see the
// package comment for the grammar).
func Set(site, spec string) error {
	p, err := parse(site, spec)
	if err != nil {
		return err
	}
	mu.Lock()
	if _, exists := registry[site]; !exists {
		armed.Add(1)
	}
	registry[site] = p
	mu.Unlock()
	return nil
}

// Clear disarms one site; unknown sites are a no-op.
func Clear(site string) {
	mu.Lock()
	if _, exists := registry[site]; exists {
		delete(registry, site)
		armed.Add(-1)
	}
	mu.Unlock()
}

// DisarmAll clears every armed site, restoring the zero-cost path —
// the heal step between chaos schedules.
func DisarmAll() {
	mu.Lock()
	for site := range registry {
		delete(registry, site)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Arm parses a multi-site activation string — "site=spec;site2=spec" —
// the format of LSCR_FAILPOINTS.
func Arm(multiSpec string) error {
	for _, part := range strings.Split(multiSpec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, spec, ok := strings.Cut(part, "=")
		if !ok || site == "" {
			return fmt.Errorf("failpoint: bad activation %q (want site=spec)", part)
		}
		if err := Set(site, spec); err != nil {
			return err
		}
	}
	return nil
}

// Seed fixes the base seed of the probabilistic (p=) gates; each site's
// rng derives from it and the site name, so a schedule replays
// identically for a fixed seed regardless of arming order. It affects
// sites armed after the call.
func Seed(s int64) { seed.Store(s) }

// Hits reports how often an armed site was evaluated; Fired how often
// it actually injected (fired <= hits under gates). Both are 0 for
// unarmed sites.
func Hits(site string) (hits, fired int64) {
	mu.RLock()
	p := registry[site]
	mu.RUnlock()
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.fired
}

// parse compiles one spec string into a policy.
func parse(site, spec string) (*policy, error) {
	p := &policy{site: site, mode: 'e', torn: -1, every: 1}
	seenMode := false
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, hasVal := strings.Cut(term, "=")
		switch key {
		case "error":
			if err := p.setMode('e', &seenMode); err != nil {
				return nil, err
			}
		case "error-once":
			if err := p.setMode('e', &seenMode); err != nil {
				return nil, err
			}
			p.once = true
		case "error-every":
			if err := p.setMode('e', &seenMode); err != nil {
				return nil, err
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("failpoint: %s: bad error-every=%q", site, val)
			}
			p.every = n
		case "torn":
			if err := p.setMode('e', &seenMode); err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("failpoint: %s: bad torn=%q", site, val)
			}
			p.torn = n
		case "delay":
			if err := p.setMode('d', &seenMode); err != nil {
				return nil, err
			}
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("failpoint: %s: bad delay=%q", site, val)
			}
			p.delay = d
		case "once":
			if hasVal {
				return nil, fmt.Errorf("failpoint: %s: once takes no value", site)
			}
			p.once = true
		case "every":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("failpoint: %s: bad every=%q", site, val)
			}
			p.every = n
		case "p":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("failpoint: %s: bad p=%q", site, val)
			}
			p.p = f
			p.rng = rand.New(rand.NewSource(seed.Load() ^ int64(siteHash(site))))
		default:
			return nil, fmt.Errorf("failpoint: %s: unknown term %q", site, term)
		}
	}
	if !seenMode {
		return nil, fmt.Errorf("failpoint: %s: spec %q names no mode (error, error-once, error-every=N, torn=K, delay=D)", site, spec)
	}
	return p, nil
}

func (p *policy) setMode(mode byte, seen *bool) error {
	if *seen {
		return fmt.Errorf("failpoint: %s: more than one mode in spec", p.site)
	}
	*seen = true
	p.mode = mode
	return nil
}

func siteHash(site string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return h.Sum64()
}
