package config

import "flag"

// Command-line layering for the daemons. Each FlagLayer binds one
// config block's knobs to a flag set; after parsing, ApplyFlags
// overrides only the knobs whose flags the operator set explicitly (so
// an unset flag's default never clobbers the file's value) and then
// validates each block.

// FlagLayer is one config block's command-line knobs.
type FlagLayer struct {
	fs       *flag.FlagSet
	set      func(cfg *InstanceConfig, name string)
	validate func(cfg *InstanceConfig) error
}

// ApplyFlags layers each layer's explicitly set flags over cfg, in
// order, and validates the layer's block, stopping at the first
// invalid one. Call it after the flag set is parsed.
func ApplyFlags(cfg *InstanceConfig, layers ...*FlagLayer) error {
	for _, l := range layers {
		l.fs.Visit(func(f *flag.Flag) { l.set(cfg, f.Name) })
		if err := l.validate(cfg); err != nil {
			return err
		}
	}
	return nil
}

// CacheFlags binds the query-cache knobs.
func CacheFlags(fs *flag.FlagSet) *FlagLayer {
	enable := fs.Bool("query-cache", true, "enable the chart query-result cache")
	maxBytes := fs.Int64("query-cache-bytes", 0, "query-cache capacity in bytes (0 = config/default)")
	ttl := fs.String("query-cache-ttl", "", "optional query-cache entry TTL, e.g. 30s (default none)")
	return &FlagLayer{fs: fs,
		set: func(cfg *InstanceConfig, name string) {
			switch name {
			case "query-cache":
				cfg.QueryCache.Disabled = !*enable
			case "query-cache-bytes":
				cfg.QueryCache.MaxBytes = *maxBytes
			case "query-cache-ttl":
				cfg.QueryCache.TTL = *ttl
			}
		},
		validate: func(cfg *InstanceConfig) error { return cfg.QueryCache.Validate() },
	}
}

// ReplicationFlags binds the satellite's replication-mode knobs.
func ReplicationFlags(fs *flag.FlagSet) *FlagLayer {
	mode := fs.String("replication-mode", "", "tight replication payload: facts or pushdown (default config/facts)")
	flush := fs.String("pushdown-flush-interval", "", "delta flush pacing for -replication-mode=pushdown, e.g. 2s")
	return &FlagLayer{fs: fs,
		set: func(cfg *InstanceConfig, name string) {
			switch name {
			case "replication-mode":
				cfg.Replication.Mode = *mode
			case "pushdown-flush-interval":
				cfg.Replication.PushdownFlushInterval = *flush
			}
		},
		validate: func(cfg *InstanceConfig) error { return cfg.Replication.Validate() },
	}
}

// StorageFlags binds the segment-store knobs.
func StorageFlags(fs *flag.FlagSet) *FlagLayer {
	backend := fs.String("storage-backend", "", "segment-store backend: memory or disk (default config/memory)")
	dataDir := fs.String("data-dir", "", "segment directory for -storage-backend=disk")
	hotTail := fs.Int("hot-tail-rows", 0, "rows buffered per table before sealing a segment (0 = config/default)")
	maxResident := fs.Int64("max-resident-bytes", 0, "heap cap for materialized disk segments (0 = config/default)")
	return &FlagLayer{fs: fs,
		set: func(cfg *InstanceConfig, name string) {
			switch name {
			case "storage-backend":
				cfg.Storage.Backend = *backend
			case "data-dir":
				cfg.Storage.DataDir = *dataDir
			case "hot-tail-rows":
				cfg.Storage.HotTailRows = *hotTail
			case "max-resident-bytes":
				cfg.Storage.MaxResidentBytes = *maxResident
			}
		},
		validate: func(cfg *InstanceConfig) error { return cfg.Storage.Validate() },
	}
}

// ShardingFlags binds the aggregation-sharding knobs.
func ShardingFlags(fs *flag.FlagSet) *FlagLayer {
	shards := fs.Int("shards", 0, "aggregation shards per realm (0/1 = unsharded)")
	key := fs.String("shard-key", "", "shard routing key: resource or schema (default config/resource)")
	return &FlagLayer{fs: fs,
		set: func(cfg *InstanceConfig, name string) {
			switch name {
			case "shards":
				cfg.Sharding.Shards = *shards
			case "shard-key":
				cfg.Sharding.Key = *key
			}
		},
		validate: func(cfg *InstanceConfig) error { return cfg.Sharding.Validate() },
	}
}

// AdmissionFlags binds the front-door admission knobs.
func AdmissionFlags(fs *flag.FlagSet) *FlagLayer {
	enable := fs.Bool("admission", false, "enable front-door admission control (rate limits, bounded queue, load shedding)")
	globalRPS := fs.Float64("admission-global-rps", 0, "global sustained requests/sec (0 = config/default)")
	userRPS := fs.Float64("admission-user-rps", 0, "per-user sustained requests/sec (0 = config/default)")
	maxConc := fs.Int("max-concurrent", 0, "concurrent in-flight API requests past which arrivals queue (0 = config/default)")
	maxQueue := fs.Int("max-queue", 0, "queued API requests past which arrivals are shed with 429 (0 = config/default)")
	queueTimeout := fs.String("queue-timeout", "", "max time a request may wait for a slot, e.g. 2s (default config/2s)")
	return &FlagLayer{fs: fs,
		set: func(cfg *InstanceConfig, name string) {
			switch name {
			case "admission":
				cfg.Admission.Enabled = *enable
			case "admission-global-rps":
				cfg.Admission.GlobalRPS = *globalRPS
			case "admission-user-rps":
				cfg.Admission.UserRPS = *userRPS
			case "max-concurrent":
				cfg.Admission.MaxConcurrent = *maxConc
			case "max-queue":
				cfg.Admission.MaxQueue = *maxQueue
			case "queue-timeout":
				cfg.Admission.QueueTimeout = *queueTimeout
			}
		},
		validate: func(cfg *InstanceConfig) error { return cfg.Admission.Validate() },
	}
}
