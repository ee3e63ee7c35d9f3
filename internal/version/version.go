// Package version reports the build's identity — module version, VCS
// revision and Go toolchain — from the information the linker stamps
// into every binary via runtime/debug.ReadBuildInfo. Every cmd/ main
// exposes it behind a -version flag, the service reports it from
// /api/v1/healthz, so a running service or a result is always
// attributable to the exact commit that produced it.
package version

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
)

// Info is the build identity.
type Info struct {
	// Module is the main module's version ("(devel)" for builds from a
	// working tree, a semver tag for released builds).
	Module string `json:"module"`
	// Revision is the full VCS revision the binary was built from, or
	// "unknown" when the build had no VCS metadata (e.g. go test
	// binaries or -buildvcs=false).
	Revision string `json:"revision"`
	// Dirty reports uncommitted changes in the build's working tree.
	Dirty bool `json:"dirty,omitempty"`
	// Go is the toolchain that built the binary.
	Go string `json:"go"`
}

// Get reads the build identity stamped into the running binary.
func Get() Info {
	info := Info{Module: "(devel)", Revision: "unknown", Go: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info.Module = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

// Short is the 12-character revision prefix (or the whole revision when
// shorter), with a "-dirty" suffix for modified working trees — the
// form BENCH artifacts and status lines use.
func (i Info) Short() string {
	rev := i.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if i.Dirty {
		rev += "-dirty"
	}
	return rev
}

// String renders the one-line form the -version flags print.
func (i Info) String() string {
	return fmt.Sprintf("%s (rev %s, %s)", i.Module, i.Short(), i.Go)
}

// Fprint writes "<prog> <identity>" — the body of every cmd/ main's
// -version flag.
func Fprint(w io.Writer, prog string) {
	fmt.Fprintf(w, "%s %s\n", prog, Get())
}
