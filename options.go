package xsltdb

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"
)

// Option configures CompileTransform. Options are functional: compose
// WithForcedStrategy, WithOuterPath, the governance knobs
// (WithTimeout, WithMaxRows, ...) and WithPlanTag freely; later options win.
type Option interface {
	applyOption(*compileOptions)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*compileOptions)

func (f optionFunc) applyOption(o *compileOptions) { f(o) }

// WithForcedStrategy selects a strategy instead of the automatic
// SQL→XQuery→no-rewrite fallback chain. Compilation fails with
// ErrRewriteFellBack when the forced strategy cannot be reached.
func WithForcedStrategy(s Strategy) Option {
	return optionFunc(func(o *compileOptions) { o.Force = &s })
}

// WithOuterPath composes an XQuery child path over the TRANSFORM OUTPUT
// (paper Example 2): e.g. WithOuterPath("table", "tr").
func WithOuterPath(path ...string) Option {
	return optionFunc(func(o *compileOptions) { o.OuterPath = path })
}

// WithTimeout bounds each Run's (or each cursor's) wall time; expiry
// surfaces as ErrCanceled wrapping context.DeadlineExceeded. Zero means no
// timeout.
func WithTimeout(d time.Duration) Option {
	return optionFunc(func(o *compileOptions) { o.Timeout = d })
}

// WithMaxRows bounds the number of result rows one execution may produce;
// exceeding it aborts the run with ErrLimitExceeded. Zero means unlimited.
func WithMaxRows(n int64) Option {
	return optionFunc(func(o *compileOptions) { o.MaxRows = n })
}

// WithMaxOutputBytes bounds the serialized output one execution may
// produce; exceeding it aborts the run with ErrLimitExceeded. Zero means
// unlimited.
func WithMaxOutputBytes(n int64) Option {
	return optionFunc(func(o *compileOptions) { o.MaxOutputBytes = n })
}

// WithMaxRecursionDepth bounds template/function recursion (runaway
// xsl:apply-templates); exceeding it surfaces ErrRecursionLimit instead of
// a stack overflow. Zero keeps the engine defaults (1024 template frames,
// 2048 XQuery function frames).
func WithMaxRecursionDepth(n int) Option {
	return optionFunc(func(o *compileOptions) { o.MaxRecursionDepth = n })
}

// WithPlanTag namespaces the compiled plan: transforms differing only in
// tag get distinct plan-cache entries, so a tagged compilation always runs
// the whole pipeline once instead of sharing an existing plan (a cold
// compile on demand).
func WithPlanTag(tag string) Option {
	return optionFunc(func(o *compileOptions) { o.PlanTag = tag })
}

// compileOptions is the folded form of an Option list.
type compileOptions struct {
	// Force selects a strategy instead of the automatic
	// SQL→XQuery→no-rewrite fallback chain.
	Force *Strategy
	// OuterPath composes an XQuery child path over the TRANSFORM OUTPUT
	// (paper Example 2): e.g. []string{"table", "tr"}.
	OuterPath []string

	// Timeout bounds each execution's wall time (see WithTimeout).
	Timeout time.Duration
	// MaxRows bounds result rows per execution (see WithMaxRows).
	MaxRows int64
	// MaxOutputBytes bounds serialized output per execution (see
	// WithMaxOutputBytes).
	MaxOutputBytes int64
	// MaxRecursionDepth bounds template/function recursion (see
	// WithMaxRecursionDepth).
	MaxRecursionDepth int
	// Sampling selects which executions trace themselves into the run-
	// history archive (see WithTraceSampling). The zero value samples
	// nothing. Like the governance options it tunes execution, not the
	// compiled plan, so it is not part of the plan-cache key.
	Sampling TraceSampling
	// PlanTag namespaces the plan-cache entry (see WithPlanTag).
	PlanTag string
}

// buildOptions folds a list of Options into one compileOptions value.
func buildOptions(opts []Option) compileOptions {
	var co compileOptions
	for _, o := range opts {
		o.applyOption(&co)
	}
	return co
}

// planKey identifies one cached compilation: same view (at the same
// version), same stylesheet text, same plan-affecting options. The
// resource-governance options (Timeout, MaxRows, MaxOutputBytes,
// MaxRecursionDepth) are deliberately excluded — they tune execution, not
// the compiled plan — so transforms differing only in those share a cache
// entry.
type planKey struct {
	view    string
	version int
	sheet   [sha256.Size]byte
	opts    string
}

func newPlanKey(view string, version int, stylesheet string, co compileOptions) planKey {
	return planKey{view: view, version: version, sheet: sha256.Sum256([]byte(stylesheet)), opts: co.planKeyPart()}
}

// planKeyPart canonicalizes the plan-affecting options.
func (o compileOptions) planKeyPart() string {
	var sb strings.Builder
	if o.Force != nil {
		fmt.Fprintf(&sb, "force=%d;", *o.Force)
	}
	if len(o.OuterPath) > 0 {
		sb.WriteString("outer=" + strings.Join(o.OuterPath, "\x00") + ";")
	}
	if o.PlanTag != "" {
		sb.WriteString("tag=" + o.PlanTag + ";")
	}
	return sb.String()
}
