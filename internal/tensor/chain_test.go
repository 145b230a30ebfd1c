package tensor

import "testing"

func TestKernelChainParseStringRoundTrip(t *testing.T) {
	for _, c := range []KernelChain{ChainAuto, ChainSSE2, ChainAVX2} {
		got, ok := ParseKernelChain(c.String())
		if !ok || got != c {
			t.Errorf("ParseKernelChain(%q) = %v, %v", c.String(), got, ok)
		}
	}
	for _, bad := range []string{"", "AVX2", "sse", "avx512", "fast", "generic"} {
		if _, ok := ParseKernelChain(bad); ok {
			t.Errorf("ParseKernelChain(%q) unexpectedly ok", bad)
		}
	}
}

func TestSetKernelChainResolution(t *testing.T) {
	prev := ActiveKernelChain()
	defer SetKernelChain(prev)
	if got := SetKernelChain(ChainAuto); got != ChainSSE2 {
		t.Fatalf("SetKernelChain(auto) = %v, want sse2", got)
	}
	// Forcing the wide chain sticks even without AVX2 hardware — the
	// dispatch falls back to the pure-Go wide body, not to another
	// chain.
	if got := SetKernelChain(ChainAVX2); got != ChainAVX2 {
		t.Fatalf("SetKernelChain(avx2) = %v, want avx2", got)
	}
	if got := ActiveKernelChain(); got != ChainAVX2 {
		t.Fatalf("ActiveKernelChain = %v after forcing avx2", got)
	}
	if got := ResolveChain(ChainAuto); got != ChainAVX2 {
		t.Fatalf("ResolveChain(auto) = %v, want the forced default", got)
	}
	if got := ResolveChain(ChainSSE2); got != ChainSSE2 {
		t.Fatalf("ResolveChain(sse2) = %v, explicit selections must pass through", got)
	}
}

func TestChainFromEnv(t *testing.T) {
	cases := []struct {
		in   string
		want KernelChain
	}{
		{"", ChainSSE2},
		{"auto", ChainSSE2},
		{"generic", ChainSSE2}, // no longer a chain: ignored
		{"sse2", ChainSSE2},
		{"avx2", ChainAVX2},
		{"AVX2", ChainSSE2},    // case-sensitive: invalid, ignored
		{"quantum", ChainSSE2}, // invalid, ignored
	}
	for _, c := range cases {
		if got := chainFromEnv(c.in); got != c.want {
			t.Errorf("chainFromEnv(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestUndefinedChainPanics: a chain value outside {auto, sse2, avx2}
// must fail loudly — at SetKernelChain (leaving the process default
// untouched) and at any kernel method — instead of silently running the
// canonical chain.
func TestUndefinedChainPanics(t *testing.T) {
	prev := ActiveKernelChain()
	defer SetKernelChain(prev)
	m := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"SetKernelChain": func() { SetKernelChain(KernelChain(7)) },
		"Gemv":           func() { KernelChain(7).Gemv(NewVector(2), m, NewVector(3)) },
		"PackedGemm":     func() { KernelChain(9).PackedGemm(NewMatrix(1, 2), m, []Vector{NewVector(3)}) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(violation); !ok {
					t.Fatalf("%s: undefined chain did not Panicf", name)
				}
			}()
			fn()
		}()
	}
	if got := ActiveKernelChain(); got != prev {
		t.Fatalf("rejected SetKernelChain moved the default to %v", got)
	}
}

func TestCPUStringStable(t *testing.T) {
	if got := (CPUInfo{}).String(); got != "none" {
		t.Errorf("empty CPUInfo = %q, want none", got)
	}
	all := CPUInfo{SSE2: true, AVX: true, FMA: true, AVX2: true, OSYMM: true}
	if got := all.String(); got != "sse2+avx+fma+avx2+osymm" {
		t.Errorf("full CPUInfo = %q", got)
	}
	if HasAVX2FMA() {
		c := CPU()
		if !c.AVX2 || !c.FMA || !c.OSYMM {
			t.Errorf("HasAVX2FMA true but CPU() = %+v", c)
		}
	}
}
