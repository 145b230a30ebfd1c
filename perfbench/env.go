package main

import (
	"os"
	"runtime"
	"strings"

	"mobilstm/internal/model"
	"mobilstm/internal/tensor"
)

// stamp is the environment a result was measured in. Results are only
// comparable between identical stamps: the same benchmark on another
// core count, toolchain, CPU or kernel chain is a different experiment.
type stamp struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	CPUFeatures string `json:"cpu_features"`
	KernelChain string `json:"kernel_chain"`
	Profile     string `json:"profile"`
}

func envStamp() stamp {
	return stamp{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		CPUFeatures: tensor.CPU().String(),
		KernelChain: tensor.ResolveChain(tensor.ChainAuto).String(),
		Profile:     model.Default().Name,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
