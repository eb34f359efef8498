// Package obs is the observability plane: structured leveled logging,
// cross-process sweep tracing (span logs + trace-context propagation),
// and run provenance. It is a deliberate leaf package — stdlib imports
// only — because internal/runner and internal/sweepsvc embed its types
// in their durable records; obs importing either would be a cycle.
//
// Nothing in this package runs on core.Run's per-cycle path. Loggers,
// span logs, and provenance are stamped at orchestration boundaries
// (point start/end, lease grant, report, merge), so the golden
// equivalence and bit-identity tests see identical simulator output
// with observability on or off.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Stable structured-log keys shared by every component. Log consumers
// (scripts/logcheck, the CI obs-smoke job, grep-driven debugging) key on
// these names; add new ones here rather than inventing per-call strings.
const (
	KeyComponent = "component" // binary or subsystem emitting the line
	KeyJob       = "job"       // sweepsvc job ID
	KeyPoint     = "point"     // experiment/point ID
	KeySpecHash  = "spec_hash" // runner.SpecHash content address
	KeyWorker    = "worker"    // sweepworker identity
	KeyLease     = "lease"     // lease span ID (one grant of a point)
	KeyCycle     = "cycle"     // simulator cycle (checkpoint/progress)
	KeyTrace     = "trace"     // trace ID linking cross-process spans
	KeySpan      = "span"      // span ID within a trace
	KeyExitCode  = "exit_code" // process exit code on summary lines
)

// LevelFromEnv reads DBSIM_LOG_LEVEL (debug|info|warn|error,
// case-insensitive) and falls back to info. One env var covers all five
// binaries so a sweep harness can crank verbosity fleet-wide.
func LevelFromEnv() slog.Level {
	switch strings.ToLower(os.Getenv("DBSIM_LOG_LEVEL")) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// NewLogger builds a JSON-handler logger tagged with the component name
// and pid. Every binary logs to stderr (stdout stays reserved for
// machine-readable results: reports, merged JSON, trace files).
func NewLogger(w io.Writer, component string, level slog.Leveler) *slog.Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(h).With(KeyComponent, component, "pid", os.Getpid())
}

// Init installs the component's JSON logger on stderr as the slog
// default and returns it. Called once at the top of each main; level
// comes from DBSIM_LOG_LEVEL.
func Init(component string) *slog.Logger {
	l := NewLogger(os.Stderr, component, LevelFromEnv())
	slog.SetDefault(l)
	return l
}

// Printf bridges the structured logger to printf-style callbacks
// (ScanJSONL's warnings, the sweep driver's progress lines). The
// formatted text becomes the msg; the component and pid attrs ride along
// from the logger.
func Printf(l *slog.Logger, level slog.Level) func(format string, args ...any) {
	return func(format string, args ...any) {
		if l == nil {
			return
		}
		l.Log(context.Background(), level, fmt.Sprintf(format, args...))
	}
}
