package tensor

import (
	"os"
	"sync/atomic"
)

// Kernel-chain selection. The package carries two sanctioned
// accumulation chains:
//
//   - the canonical 16-lane chain (kernel.go's dotRowGeneric, carried
//     bitwise by the SSE2 body in dot_amd64.s) — the default, and the
//     chain every historical artifact and cross-box trajectory was
//     recorded under;
//   - the wide 32-lane FMA chain (kernel_wide.go's dotRowWideGeneric,
//     carried by the AVX2+FMA body in dot_avx2_amd64.s) — an explicit
//     fast mode with its own determinism contract (wide-vs-wide bitwise
//     equality at any GOMAXPROCS and any batch B).
//
// A KernelChain names one of them, and is itself the kernel family:
// the GEMV/GEMM kernels are methods on it (c.Gemv, c.PackedGemmRows,
// …), each with one body that picks the chain's row kernel once per
// call (rowDot). The package-level Gemv, PackedGemm, … are the same
// bodies pinned to ChainSSE2. SetKernelChain moves the process
// default; per-call-site selection (lstm/gru RunOptions.Chain,
// serve.Config.Chain) resolves through ResolveChain so ChainAuto
// follows the process default.

// KernelChain selects which accumulation chain the kernels run. The
// zero value is ChainAuto.
type KernelChain uint32

const (
	// ChainAuto defers to the process default (ActiveKernelChain).
	ChainAuto KernelChain = iota
	// ChainSSE2 is the canonical 16-lane chain through the SSE2 body
	// (the pure-Go definition off amd64).
	ChainSSE2
	// ChainAVX2 is the wide 32-lane FMA chain: the AVX2+FMA body when
	// the CPU supports it, the pure-Go wide twin otherwise.
	ChainAVX2
)

// String returns the canonical lower-case chain name, as accepted by
// ParseKernelChain and the MOBILSTM_KERNEL_CHAIN environment variable.
func (c KernelChain) String() string {
	switch c {
	case ChainAuto:
		return "auto"
	case ChainSSE2:
		return "sse2"
	case ChainAVX2:
		return "avx2"
	}
	return "unknown"
}

// ParseKernelChain maps a chain name ("auto", "sse2", "avx2") to its
// KernelChain. The second result is false for anything else, including
// the empty string.
func ParseKernelChain(s string) (KernelChain, bool) {
	switch s {
	case "auto":
		return ChainAuto, true
	case "sse2":
		return ChainSSE2, true
	case "avx2":
		return ChainAVX2, true
	}
	return ChainAuto, false
}

// KernelChainEnv is the environment variable consulted once at package
// init: a valid chain name forces the process default, anything else is
// ignored. CI's chain matrix sets it to run the same test body once per
// chain on whatever silicon the runner has.
const KernelChainEnv = "MOBILSTM_KERNEL_CHAIN"

// activeChain holds the resolved process-default chain — never
// ChainAuto and never an undefined value. Reads are a single atomic
// load, which x86 serves as a plain MOV.
var activeChain atomic.Uint32

func init() {
	activeChain.Store(uint32(chainFromEnv(os.Getenv(KernelChainEnv))))
}

// chainFromEnv maps the MOBILSTM_KERNEL_CHAIN value to the initial
// process default: a valid explicit chain wins, anything else — empty,
// misspelled, or "auto" — falls back to the canonical default. Invalid
// values are ignored rather than fatal so a stale CI matrix entry can
// never change numerics silently *and* crash the binary.
func chainFromEnv(v string) KernelChain {
	if forced, ok := ParseKernelChain(v); ok && forced != ChainAuto {
		return forced
	}
	return ChainSSE2
}

// SetKernelChain sets the process-default chain and returns the
// effective selection: ChainAuto restores the canonical default
// (ChainSSE2), ChainSSE2 and ChainAVX2 stick as asked — including
// ChainAVX2 on a CPU without AVX2, where the wide chain simply runs
// through its pure-Go twin (see dotRowWide). Any other value panics.
// The default is consulted wherever a caller passes ChainAuto; call
// sites that pinned an explicit chain are unaffected.
//
// The switch is atomic but not synchronized against in-flight kernels;
// set it at startup or between runs, as the serve engine builder and
// the tests do.
func SetKernelChain(c KernelChain) KernelChain {
	if c == ChainAuto {
		c = ChainSSE2
	}
	c.rowDot() // panics on an undefined chain before the default moves
	activeChain.Store(uint32(c))
	return c
}

// ActiveKernelChain returns the current process-default chain.
func ActiveKernelChain() KernelChain {
	return KernelChain(activeChain.Load())
}

// ResolveChain maps ChainAuto to the process default and returns every
// other selection unchanged. lstm/gru resolve RunOptions.Chain through
// this exactly once per Run/RunBatch call; an undefined value passes
// through and fails at the first kernel call.
func ResolveChain(c KernelChain) KernelChain {
	if c == ChainAuto {
		return ActiveKernelChain()
	}
	return c
}

// rowDot returns chain c's row kernel — the one choice every kernel
// body makes, once per call. ChainAuto follows the process default; an
// undefined chain panics, so RunE-style Guard boundaries report it as an
// error instead of silently running the canonical chain.
func (c KernelChain) rowDot() func(row, x []float32) float32 {
	switch ResolveChain(c) {
	case ChainSSE2:
		return dotRow
	case ChainAVX2:
		return dotRowWide
	}
	Panicf("tensor: undefined kernel chain %d", uint32(c))
	return nil
}
