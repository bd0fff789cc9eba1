package cliutil

import (
	"fmt"
	"os"

	"repro/internal/telemetry"
)

// StatsHeader is the telemetry snapshot header for tool, stamped with
// the build version (see Version) so stats artifacts say which build
// produced them.
func StatsHeader(tool string) telemetry.Header {
	return telemetry.Header{Tool: tool, Version: Version()}
}

// WriteStats dumps reg, the registry the tool created at the top of
// main, to path as indented JSON ("-" writes to stdout). Tools accepting
// -stats-json call it on every meaningful exit path — deviations and
// cancellation included — so a failing run still leaves its evidence.
func WriteStats(path, tool string, reg *telemetry.Registry) error {
	if path == "-" {
		return reg.WriteJSON(os.Stdout, StatsHeader(tool))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f, StatsHeader(tool)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StartDebug serves reg's /metrics (Prometheus text) and /stats.json,
// and /debug/vars and /debug/pprof, on addr, announcing the bound address
// on stderr (addr may be ":0"). Close the returned server on exit.
func StartDebug(addr, tool string, reg *telemetry.Registry) (*telemetry.DebugServer, error) {
	srv, err := telemetry.ServeDebug(addr, reg, StatsHeader(tool))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: debug server listening on http://%s/\n", tool, srv.Addr())
	return srv, nil
}
