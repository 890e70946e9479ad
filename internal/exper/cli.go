package exper

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof" // -pprof serves the standard profiling endpoints
	"os"
	"runtime/trace"
	"strconv"
	"strings"

	"chopin/internal/gc"
	"chopin/internal/obs"
)

// CLI bundles the engine flags every experiment command shares: cache
// location, forced cold re-runs, worker count, progress reporting and the
// observability trio (-telemetry, -pprof, -trace). Register the flags on the
// command's FlagSet, Build an engine after parsing, and Close when the
// command finishes so telemetry and trace buffers reach disk.
type CLI struct {
	CacheDir  string
	Cold      bool
	Progress  bool
	Workers   int
	Telemetry string
	Pprof     string
	Trace     string

	eng       *Engine
	cache     *Cache
	telem     *obs.JSONL
	telemFile *os.File
	traceFile *os.File
	pprofSrv  *http.Server
}

// RegisterFlags installs the shared engine flags. cacheDefault seeds -cache
// (empty disables caching unless the user opts in).
func (c *CLI) RegisterFlags(fs *flag.FlagSet, cacheDefault string) {
	fs.StringVar(&c.CacheDir, "cache", cacheDefault, "result cache directory ('none' or empty disables caching)")
	fs.BoolVar(&c.Cold, "cold", false, "ignore results cached before this run and re-run every invocation once (fresh results still cached)")
	fs.BoolVar(&c.Progress, "progress", false, "print per-invocation progress events")
	fs.IntVar(&c.Workers, "workers", 0, "concurrent invocations (0 = NumCPU)")
	fs.StringVar(&c.Telemetry, "telemetry", "", "write per-run telemetry events to this JSONL file (summarize with obsreport)")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&c.Trace, "trace", "", "write a runtime/trace execution trace to this file")
}

// Build opens the cache (if configured), the telemetry sink and profiling
// outputs, and starts an engine. Progress events go to w, prefixed like
// "runbms: ". Call Close once the command's work is done.
func (c *CLI) Build(w io.Writer, prefix string) (*Engine, error) {
	opt := Options{Workers: c.Workers}
	if c.CacheDir != "" && c.CacheDir != "none" {
		mode := ReadWrite
		if c.Cold {
			mode = WriteOnly
		}
		cache, err := OpenCache(c.CacheDir, mode)
		if err != nil {
			return nil, err
		}
		c.cache = cache
		opt.Cache = cache
	}
	if c.Progress {
		opt.Observer = Progress(w, prefix)
	}
	if c.Telemetry != "" {
		f, err := os.Create(c.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("opening telemetry sink: %w", err)
		}
		c.telemFile = f
		c.telem = obs.NewJSONL(f)
		opt.Recorder = c.telem
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("opening trace output: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting runtime trace: %w", err)
		}
		c.traceFile = f
	}
	if c.Pprof != "" {
		srv := &http.Server{Addr: c.Pprof} // DefaultServeMux carries the pprof handlers
		c.pprofSrv = srv
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(w, "%spprof server: %v\n", prefix, err)
			}
		}()
	}
	c.eng = New(opt)
	return c.eng, nil
}

// Close shuts down the engine — draining the pool and flushing the
// write-behind result cache to disk — then closes the cache, stopping its
// writer, flushes and closes the telemetry sink, stops the runtime trace and
// shuts down the pprof server. Skipping it loses whatever tail of cached
// results is still queued behind the cache writer. It is safe to call when
// none were enabled, and again after it returned.
func (c *CLI) Close() error {
	var first error
	if c.eng != nil {
		if err := c.eng.Close(); err != nil && first == nil {
			first = err
		}
		c.eng = nil
	}
	if c.cache != nil {
		if err := c.cache.Close(); err != nil && first == nil {
			first = err
		}
		c.cache = nil
	}
	if c.telem != nil {
		if err := c.telem.Close(); err != nil && first == nil {
			first = err
		}
		if err := c.telemFile.Close(); err != nil && first == nil {
			first = err
		}
		c.telem, c.telemFile = nil, nil
	}
	if c.traceFile != nil {
		trace.Stop()
		if err := c.traceFile.Close(); err != nil && first == nil {
			first = err
		}
		c.traceFile = nil
	}
	if c.pprofSrv != nil {
		c.pprofSrv.Close()
		c.pprofSrv = nil
	}
	return first
}

// CloseOrWarn closes the CLI's observability outputs, reporting any flush
// error to w — for deferred use in commands, where a torn telemetry file
// should warn but not change the exit status.
func (c *CLI) CloseOrWarn(w io.Writer, prefix string) {
	if err := c.Close(); err != nil {
		fmt.Fprintf(w, "%s%v\n", prefix, err)
	}
}

// Summary formats the engine's counters as a one-line run report: "from
// cache" counts records that predate the run, "repeated" the jobs the run
// itself repeats (Stats.Deduped).
func Summary(s Stats) string {
	return fmt.Sprintf("%d invocations run, %d from cache, %d repeated (%d OOM, %d failed)",
		s.Executed, s.CacheHits, s.Deduped, s.OOMs, s.Failures)
}

// ParseFactors parses the value of the flag called name (heap factors,
// request rates) as a comma-separated list of finite positive numbers; an
// empty string means "use the defaults" (nil). Errors name the flag.
func ParseFactors(name, s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("%s: bad factor %q", name, part)
		}
		out = append(out, f)
	}
	return out, nil
}

// ParseCollectors parses a comma-separated list of collector names; an
// empty string means "use the defaults" (nil).
func ParseCollectors(s string) ([]gc.Kind, error) {
	if s == "" {
		return nil, nil
	}
	var out []gc.Kind
	for _, part := range strings.Split(s, ",") {
		k, err := gc.ParseKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}
