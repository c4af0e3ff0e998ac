package main

import (
	"os"
	"runtime"
	"runtime/debug"
)

// manifest names everything that produced a result: the build, the
// machine's CPU view, the seed, the workload's resolved parameters and the
// command line.
type manifest struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Traced      bool     `json:"traced"`
	Params      any      `json:"params"`
	Argv        []string `json:"argv"`
	GoVersion   string   `json:"go_version"`
	VCSRevision string   `json:"vcs_revision"`
	VCSTime     string   `json:"vcs_time,omitempty"`
	VCSModified string   `json:"vcs_modified"`
	Module      string   `json:"module"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"nproc"`
	Workers     int      `json:"workers"`
}

func newManifest(args []string, w *workload, seed int64, seconds float64, traced bool) manifest {
	m := manifest{
		Workload:    w.name,
		Seed:        seed,
		Seconds:     seconds,
		Traced:      traced,
		Params:      w.params(seed),
		Argv:        append([]string{os.Args[0]}, args...),
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workers:     benchWorkers,
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return m
	}
	m.GoVersion = info.GoVersion
	for _, dep := range info.Deps {
		if dep.Path == "github.com/stellar-repro/stellar" {
			m.Module = dep.Path + "@" + dep.Version
			if dep.Replace != nil {
				m.Module += " => " + dep.Replace.Path
			}
		}
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			m.VCSRevision = s.Value
		case "vcs.time":
			m.VCSTime = s.Value
		case "vcs.modified":
			m.VCSModified = s.Value
		}
	}
	return m
}
