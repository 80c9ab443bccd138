package main

import (
	"testing"

	"repro/internal/distance"
)

func TestValidateTopology(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		role    string
		peers   string
		autoEps bool
		ok      bool
	}{
		{name: "standalone", shards: 1, ok: true},
		{name: "standalone autoeps", shards: 1, autoEps: true, ok: true},
		{name: "in-process shards", shards: 4, ok: true},
		{name: "shard node", shards: 1, role: "shard", ok: true},
		{name: "coordinator", shards: 1, role: "coordinator", peers: "h1:8081,h2:8081", ok: true},
		{name: "unknown role", shards: 1, role: "leader"},
		{name: "coordinator without peers", shards: 1, role: "coordinator"},
		{name: "peers without coordinator", shards: 1, peers: "h1:8081"},
		{name: "peers on a shard node", shards: 1, role: "shard", peers: "h1:8081"},
		{name: "shard node with in-process shards", shards: 4, role: "shard"},
		{name: "coordinator with in-process shards", shards: 4, role: "coordinator", peers: "h1:8081"},
		{name: "in-process shards autoeps", shards: 4, autoEps: true},
		{name: "shard node autoeps", shards: 1, role: "shard", autoEps: true},
		{name: "coordinator autoeps", shards: 1, role: "coordinator", peers: "h1:8081", autoEps: true},
	}
	for _, c := range cases {
		err := validateTopology(c.shards, c.role, c.peers, c.autoEps)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateTopology(%d, %q, %q, %v) = %v, want ok=%v",
				c.name, c.shards, c.role, c.peers, c.autoEps, err, c.ok)
		}
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
