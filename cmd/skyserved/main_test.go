package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/distance"
)

func TestValidateTopology(t *testing.T) {
	cases := []struct {
		name  string
		role  string
		peers string
		ok    bool
	}{
		{name: "standalone", ok: true},
		{name: "shard node", role: "shard", ok: true},
		{name: "coordinator", role: "coordinator", peers: "h1:8081,h2:8081", ok: true},
		{name: "unknown role", role: "leader"},
		{name: "coordinator without peers", role: "coordinator"},
		{name: "peers without coordinator", peers: "h1:8081"},
		{name: "peers on a shard node", role: "shard", peers: "h1:8081"},
	}
	for _, c := range cases {
		err := validateTopology(c.role, c.peers)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateTopology(%q, %q) = %v, want ok=%v",
				c.name, c.role, c.peers, err, c.ok)
		}
	}
}

// A role refuses every flag it never reads, and only when the flag was
// given: a shard or coordinator has no /query cache, and a coordinator runs
// no miner, WAL or epoch loop of its own.
func TestValidateTopologyFlags(t *testing.T) {
	cacheFlags := []string{"query-verify"}
	coordinatorFlags := []string{"eps", "epoch-areas", "epoch-interval", "minpts", "mode", "seed",
		"traffic-overrides", "wal-dir", "wal-segment-bytes", "wal-window"}
	// Flags every role reads, plus the ones a shard process reads.
	alwaysRead := []string{"addr", "batch", "debug-addr", "drain", "queue", "rows", "snapshot", "traffic"}
	cat := func(lists ...[]string) []string {
		var out []string
		for _, l := range lists {
			out = append(out, l...)
		}
		return out
	}
	cases := []struct {
		name   string
		role   string
		ok     []string
		refuse []string
	}{
		{name: "standalone", ok: cat(alwaysRead, cacheFlags, coordinatorFlags)},
		{name: "shard node", role: "shard", ok: cat(alwaysRead, coordinatorFlags), refuse: cacheFlags},
		{name: "coordinator", role: "coordinator", ok: alwaysRead, refuse: cat(cacheFlags, coordinatorFlags)},
	}
	for _, c := range cases {
		if err := validateTopologyFlags(map[string]bool{}, c.role); err != nil {
			t.Errorf("%s, no flags set: %v", c.name, err)
		}
		for _, name := range c.ok {
			if err := validateTopologyFlags(map[string]bool{name: true}, c.role); err != nil {
				t.Errorf("%s -%s: %v, want ok", c.name, name, err)
			}
		}
		for _, name := range c.refuse {
			err := validateTopologyFlags(map[string]bool{name: true}, c.role)
			if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
				t.Errorf("%s -%s: %v, want it refused", c.name, name, err)
			}
		}
	}
}

// runMainEnv names the environment variable that makes this test binary
// run skyserved's main with the arguments it holds (one per line).
const runMainEnv = "SKYSERVED_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"skyserved"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The one sharded topology is shard processes behind a coordinator:
// skyserved has no -shards flag, so -shards 4 is refused as an unknown
// flag and the process exits before it listens.
func TestShardsFlagRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), runMainEnv+"=-shards\n4\n-addr\n127.0.0.1:0")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("skyserved -shards 4: err %v, want a non-zero exit\n%s", err, out)
	}
	if ctx.Err() != nil || bytes.Contains(out, []byte("listening")) {
		t.Fatalf("skyserved -shards 4 started serving:\n%s", out)
	}
	if !bytes.Contains(out, []byte("flag provided but not defined: -shards")) {
		t.Errorf("skyserved -shards 4 output does not name the flag:\n%s", out)
	}
}

// Flags that configure a subsystem are refused when that subsystem is off,
// rather than accepted and never read.
func TestValidateSubsystems(t *testing.T) {
	cases := []struct {
		name        string
		trafficOn   bool
		overrides   string
		walDir      string
		walSegBytes int64
		walWindow   int64
		ok          bool
	}{
		{name: "defaults", ok: true},
		{name: "traffic", trafficOn: true, ok: true},
		{name: "traffic with overrides", trafficOn: true, overrides: "sdssbot=bot", ok: true},
		{name: "overrides without traffic", overrides: "sdssbot=bot"},
		{name: "wal", walDir: "wal", ok: true},
		{name: "wal with segment bytes and window", walDir: "wal", walSegBytes: 1 << 20, walWindow: 100, ok: true},
		{name: "segment bytes without wal", walSegBytes: 1 << 20},
		{name: "window without wal", walWindow: 100},
		{name: "overrides and window, both subsystems off", overrides: "x=bot", walWindow: 100},
	}
	for _, c := range cases {
		err := validateSubsystems(c.trafficOn, c.overrides, c.walDir, c.walSegBytes, c.walWindow)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateSubsystems(%v, %q, %q, %d, %d) = %v, want ok=%v",
				c.name, c.trafficOn, c.overrides, c.walDir, c.walSegBytes, c.walWindow, err, c.ok)
		}
	}
}

// -mode accepts exactly endpoint and literal; anything else is refused
// rather than silently mining in endpoint mode.
func TestParseMode(t *testing.T) {
	cases := []struct {
		flag string
		want distance.Mode
		ok   bool
	}{
		{"endpoint", distance.ModeEndpoint, true},
		{"literal", distance.ModePaperLiteral, true},
		{"", 0, false},
		{"paper-literal", 0, false},
		{"Literal", 0, false},
		{"endpoints", 0, false},
	}
	for _, c := range cases {
		got, err := distance.ParseMode(c.flag)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", c.flag, got, err, c.want, c.ok)
		}
	}
}
