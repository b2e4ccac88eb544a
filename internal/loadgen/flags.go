package loadgen

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"p2kvs"
)

// engines lists the values -engine accepts.
var engines = []string{"rocksdb", "leveldb", "pebblesdb", "wiredtiger", "kvell"}

// StoreFlags declares every store-shaping flag on fs — the one place
// they exist, so dbbench, p2kvs-server and p2kvs-cli cannot drift apart —
// with def supplying the tool's own defaults (Dir, Workers, Admission,
// DrainTimeout). Call the returned function after fs.Parse: it validates
// the values and returns the Options, before any store is opened.
func StoreFlags(fs *flag.FlagSet, def p2kvs.Options) func() (p2kvs.Options, error) {
	o := def
	fs.StringVar(&o.Dir, "dir", def.Dir, "data directory (empty = in-memory)")
	fs.BoolVar(&o.InMemory, "inmemory", false, "use the in-memory filesystem even with -dir set (data lost on exit)")
	fs.StringVar((*string)(&o.Engine), "engine", "rocksdb", "engine: "+strings.Join(engines, ", "))
	fs.IntVar(&o.Workers, "workers", def.Workers, "p2KVS worker count of a new -dir (a store reopens at its recorded count)")
	fs.Float64Var(&o.DeviceScale, "devscale", 1.0, "simulated device time scale")
	walSync := fs.String("wal_sync", "never", "WAL durability policy: never, commit (fsync before every ack), or an interval like 100ms")
	fs.DurationVar(&o.DrainTimeout, "drain_timeout", def.DrainTimeout, "bound on Close's queue drain (0 = wait forever)")
	fs.DurationVar(&o.ScrubInterval, "scrub_interval", 0, "background at-rest integrity scrub cadence (0 = disabled)")
	fs.Int64Var(&o.ScrubRate, "scrub_rate", 0, "scrub read-bandwidth budget in bytes/sec (0 = unthrottled)")
	fs.StringVar(&o.RepairFrom, "repair_from", "", "backup directory engines may pull verified files from to self-repair quarantined data")
	fs.Int64Var(&o.HotCacheBytes, "hot_cache", 0, "hot-key read cache budget in bytes; hits bypass queue admission (-1 = default 32 MiB; 0 disables)")
	fs.Int64Var(&o.ReplBacklogBytes, "repl_backlog", 0, "replication backlog retention in bytes; non-zero enables replication (-1 = default 16 MiB)")
	fs.BoolVar(&o.Elastic, "elastic", false, "place keys on a consistent-hash ring and enable online resharding (incompatible with replication)")
	return func() (p2kvs.Options, error) {
		o := o
		if o.Dir == "" {
			o.Dir, o.InMemory = "mem-db", true
		}
		if !slices.Contains(engines, string(o.Engine)) {
			return o, fmt.Errorf("unknown engine %q (valid: %s)", o.Engine, strings.Join(engines, ", "))
		}
		switch *walSync {
		case "never":
			o.WALSync = p2kvs.SyncNever
		case "commit":
			o.WALSync = p2kvs.SyncOnCommit
		default:
			d, err := time.ParseDuration(*walSync)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("-wal_sync must be never, commit, or a positive duration, got %q", *walSync)
			}
			o.WALSync, o.WALSyncInterval = p2kvs.SyncInterval, d
		}
		return o, nil
	}
}
