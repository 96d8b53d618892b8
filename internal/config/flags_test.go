package config

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// fileConfig is a config as loaded from a file, with a non-default
// value in every knob the flag layers can override.
func fileConfig() InstanceConfig {
	c := validInstance()
	c.QueryCache = QueryCacheConfig{MaxBytes: 1 << 20, TTL: "1m"}
	c.Replication = ReplicationConfig{Mode: "pushdown", PushdownFlushInterval: "5s"}
	c.Storage = StorageConfig{Backend: "disk", DataDir: "/var/lib/xdmod", HotTailRows: 100, MaxResidentBytes: 1 << 30}
	c.Sharding = ShardingConfig{Shards: 4, Key: ShardKeySchema}
	c.Admission = AdmissionConfig{Enabled: true, GlobalRPS: 50, UserRPS: 5, MaxConcurrent: 8, MaxQueue: 16, QueueTimeout: "3s"}
	return c
}

// parseLayers binds every flag layer to a fresh flag set and parses
// args, as a daemon does.
func parseLayers(t *testing.T, args ...string) (*flag.FlagSet, []*FlagLayer) {
	t.Helper()
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	layers := []*FlagLayer{CacheFlags(fs), ReplicationFlags(fs), StorageFlags(fs), ShardingFlags(fs), AdmissionFlags(fs)}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs, layers
}

// TestFlagLayers: an unset flag leaves the file's value alone (even
// where the flag's default differs from it), a set flag overrides
// exactly its knob, and the overridden block is validated.
func TestFlagLayers(t *testing.T) {
	_, layers := parseLayers(t)
	cfg := fileConfig()
	if err := ApplyFlags(&cfg, layers...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, fileConfig()) {
		t.Errorf("unset flags changed the file config:\n got  %+v\n want %+v", cfg, fileConfig())
	}

	_, layers = parseLayers(t,
		"-query-cache=false", "-query-cache-bytes", "4096",
		"-replication-mode", "facts",
		"-hot-tail-rows", "7",
		"-shards", "2",
		"-max-queue", "3")
	cfg = fileConfig()
	if err := ApplyFlags(&cfg, layers...); err != nil {
		t.Fatal(err)
	}
	want := fileConfig()
	want.QueryCache.Disabled = true
	want.QueryCache.MaxBytes = 4096
	want.Replication.Mode = "facts"
	want.Storage.HotTailRows = 7
	want.Sharding.Shards = 2
	want.Admission.MaxQueue = 3
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("set flags:\n got  %+v\n want %+v", cfg, want)
	}

	for _, args := range [][]string{
		{"-query-cache-ttl", "soon"},
		{"-pushdown-flush-interval", "often"},
		{"-storage-backend", "tape"},
		{"-shard-key", "user"},
		{"-queue-timeout", "later"},
	} {
		_, layers := parseLayers(t, args...)
		cfg := fileConfig()
		err := ApplyFlags(&cfg, layers...)
		if err == nil || !strings.HasPrefix(err.Error(), "config: ") {
			t.Errorf("%v: err = %v, want a config validation error", args, err)
		}
	}
}
