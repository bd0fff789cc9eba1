package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// Version reports the build's identity: the module version when built
// from a tagged module ("(devel)" for tree builds), the VCS revision when
// the toolchain stamped one, and the Go version. It is what -version
// prints and what telemetry snapshots embed, so CI stats artifacts and
// saved -stats-json files say which build produced them.
func Version() string {
	v := "devel"
	var rev, dirty string
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			v = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	// A stamped module version (a tag or pseudo-version) already embeds the
	// revision; only tree builds need it appended.
	if v == "devel" && rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		v += "-" + rev + dirty
	}
	return v
}

// VersionFlag registers -version on fs. The returned function is called
// after flag parsing: when the flag was set it prints "tool version
// (goversion os/arch)" and exits 0.
func VersionFlag(fs *flag.FlagSet, tool string) func() {
	show := fs.Bool("version", false, "print version and exit")
	return func() {
		if !*show {
			return
		}
		fmt.Printf("%s %s (%s %s/%s)\n", tool, Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		os.Exit(0)
	}
}
