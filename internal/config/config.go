// Package config is the layered daemon configuration for cliod: a flat
// key=value config file (clio.conf), CLIO_* environment variables, and
// command-line flags merged in that order — flags win over environment, which
// wins over the file, which wins over the built-in defaults.
//
// The paper's log service is a shared departmental server; running it that
// way needs more than flags. A Config carries everything the daemon can be
// told — store geometry, listen addresses, group-commit and compaction knobs,
// cluster membership, drain behavior, and the tenant table with per-tenant
// quotas — and Validate rejects nonsense (negative quotas, a compaction
// live-fraction outside (0,1], cluster flags without peers) before the
// daemon touches the store.
//
// Every value is set through Set(key, value), the single point all three
// layers funnel through, so the file, the environment and the flags cannot
// drift in how they parse a knob. Set records which keys were touched;
// Validate uses that to tell "quorum left at its default" from "quorum
// explicitly set" when checking cluster coherence.
package config

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Tenant is one tenant's declaration: a top-level namespace prefix (log
// files under /<name>), the shared secret its sessions authenticate with,
// and its quotas. A zero quota means unlimited.
type Tenant struct {
	// Name is the tenant's namespace: the top-level path segment its log
	// files live under. It must be a valid path segment (no "/", not
	// empty) with no dot: dotted roots are reserved system sublogs, and a
	// consumer group "<name>.<group>" belongs to the tenant before its
	// first dot.
	Name string
	// Token is the shared secret presented in the session handshake.
	Token string
	// MaxLogs bounds how many log files may exist under the tenant's
	// namespace (existing logs are counted at first bind).
	MaxLogs int64
	// MaxBytes bounds the entry bytes the tenant may append over the
	// daemon's lifetime (storage is write-once: appended bytes are the
	// tenant's storage footprint growth).
	MaxBytes int64
	// MaxSessions bounds the tenant's concurrently authenticated
	// connections.
	MaxSessions int64
}

// Config is the merged daemon configuration. Field defaults match the
// long-standing cliod flag defaults; Default() is the canonical source.
type Config struct {
	Store              string
	Listen             string
	Create             bool
	Shards             int
	VolumeBlocks       int
	BlockSize          int
	Sync               bool
	CheckpointInterval int
	Admin              string
	SlowTrace          time.Duration
	Peers              string
	Advertise          string
	Role               string
	Quorum             int
	CompactInterval    time.Duration
	CompactMaxLive     float64
	CompactMinHot      int
	// DrainTimeout bounds the graceful SIGTERM drain: how long in-flight
	// requests and group commits may run before connections are forced
	// closed.
	DrainTimeout time.Duration

	// Tenants is the tenant table, keyed by name. Empty means open
	// (single-tenant, unauthenticated) mode.
	Tenants map[string]*Tenant

	// set records which keys Set has touched, across all layers.
	set map[string]bool
}

// DefaultDrainTimeout bounds the graceful drain when none is configured.
const DefaultDrainTimeout = 30 * time.Second

// Default returns the built-in configuration, equal to cliod's historical
// flag defaults.
func Default() *Config {
	return &Config{
		Listen:       ":7846",
		SlowTrace:    100 * time.Millisecond,
		Role:         "leader",
		Quorum:       2,
		DrainTimeout: DefaultDrainTimeout,
		Tenants:      map[string]*Tenant{},
		set:          map[string]bool{},
	}
}

// IsSet reports whether any layer explicitly set key.
func (c *Config) IsSet(key string) bool { return c.set[key] }

// key declares one scalar knob once: its spelling (the cliod flag, the
// clio.conf key and, through EnvVar, the environment variable), the field it
// sets, whether a SIGHUP reload may change it, and its flag help text. The
// field's type decides how a value parses and which kind of flag it is; the
// default is whatever Default() puts in the field. Set, ApplyEnv, Diff,
// Reloadable and RegisterFlags all walk this table. Every scalar knob may be
// set from the environment (tenant declarations may not — secrets in process
// environments leak through /proc and `ps e`).
type key struct {
	name       string
	field      func(*Config) any // *string, *bool, *int, *time.Duration or *float64
	reloadable bool
	help       string
}

var keys = []key{
	{"store", func(c *Config) any { return &c.Store }, false, "store directory (required)"},
	{"listen", func(c *Config) any { return &c.Listen }, false, "TCP listen address"},
	{"create", func(c *Config) any { return &c.Create }, false, "create a new store instead of opening one"},
	{"shards", func(c *Config) any { return &c.Shards }, false, "hash partitions, with -create (0 = 1); the store records it, a reopen asserts a value > 0"},
	{"volume-blocks", func(c *Config) any { return &c.VolumeBlocks }, false, "capacity of each volume file in blocks, with -create (0 = 1048576); the store records it, a reopen asserts a value > 0"},
	{"block-size", func(c *Config) any { return &c.BlockSize }, false, "block size in bytes, with -create (0 = 1024); the store records it, a reopen asserts a value > 0"},
	{"sync", func(c *Config) any { return &c.Sync }, false, "fsync every sealed block"},
	{"checkpoint-interval", func(c *Config) any { return &c.CheckpointInterval }, false, "emit a recovery checkpoint every N sealed blocks per shard, and on clean shutdown (0 disables; recovery then reconstructs from scratch)"},
	{"admin", func(c *Config) any { return &c.Admin }, false, "HTTP admin listen address (/metrics, /statusz, /tracez, /debug/pprof); empty disables"},
	{"slow-trace", func(c *Config) any { return &c.SlowTrace }, true, "requests at least this slow are kept in /tracez's slow ring (0 keeps everything)"},
	{"peers", func(c *Config) any { return &c.Peers }, false, "comma-separated replica addresses; enables cluster mode"},
	{"advertise", func(c *Config) any { return &c.Advertise }, false, "address peers and redirected clients reach this node at (default -listen)"},
	{"role", func(c *Config) any { return &c.Role }, false, "initial cluster role: leader or follower"},
	{"quorum", func(c *Config) any { return &c.Quorum }, false, "replicas (leader included) that must stage a write before it is acked"},
	{"compact-interval", func(c *Config) any { return &c.CompactInterval }, true, "run a compaction pass on every shard this often; 0 disables background reclamation"},
	{"compact-max-live", func(c *Config) any { return &c.CompactMaxLive }, true, "max fraction of live blocks for a volume to be compacted (0 = default 0.5)"},
	{"compact-min-hot", func(c *Config) any { return &c.CompactMinHot }, true, "minimum volumes kept mounted per shard (0 = default 2)"},
	{"drain-timeout", func(c *Config) any { return &c.DrainTimeout }, true, "how long a SIGTERM drain lets in-flight requests and group commits finish before forcing connections closed"},
}

func lookupKey(name string) *key {
	for i := range keys {
		if keys[i].name == name {
			return &keys[i]
		}
	}
	return nil
}

// RegisterFlags defines one flag per scalar key on fs, with the key's help
// text and Default()'s value. The flag values themselves are not read back:
// the daemon visits the flags that were set and passes each through Set, like
// the file and environment layers.
func RegisterFlags(fs *flag.FlagSet) {
	def := Default()
	for _, k := range keys {
		switch p := k.field(def).(type) {
		case *string:
			fs.String(k.name, *p, k.help)
		case *bool:
			fs.Bool(k.name, *p, k.help)
		case *int:
			fs.Int(k.name, *p, k.help)
		case *time.Duration:
			fs.Duration(k.name, *p, k.help)
		case *float64:
			fs.Float64(k.name, *p, k.help)
		}
	}
}

// Set parses and applies one key. It is the single merge point for the
// file, environment and flag layers.
func (c *Config) Set(name, value string) error {
	fail := func(err error) error {
		return fmt.Errorf("config: %s = %q: %w", name, value, err)
	}
	if tenant, field, ok := tenantKey(name); ok {
		if err := c.setTenant(tenant, field, value); err != nil {
			return fail(err)
		}
		c.set[name] = true
		return nil
	}
	k := lookupKey(name)
	if k == nil {
		return fmt.Errorf("config: unknown key %q", name)
	}
	var err error
	switch p := k.field(c).(type) {
	case *string:
		*p = value
	case *bool:
		*p, err = parseBool(value)
	case *int:
		*p, err = strconv.Atoi(value)
	case *time.Duration:
		*p, err = time.ParseDuration(value)
	case *float64:
		*p, err = strconv.ParseFloat(value, 64)
	}
	if err != nil {
		return fail(err)
	}
	c.set[name] = true
	return nil
}

// parseBool accepts the flag-package spellings.
func parseBool(v string) (bool, error) {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("not a boolean")
	}
	return b, nil
}

// tenantKey splits "tenant.<name>.<field>" into its parts.
func tenantKey(key string) (name, field string, ok bool) {
	rest, found := strings.CutPrefix(key, "tenant.")
	if !found {
		return "", "", false
	}
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

func (c *Config) setTenant(name, field, value string) error {
	if c.Tenants == nil {
		c.Tenants = map[string]*Tenant{}
	}
	t := c.Tenants[name]
	if t == nil {
		t = &Tenant{Name: name}
		c.Tenants[name] = t
	}
	var err error
	switch field {
	case "token":
		t.Token = value
	case "max-logs":
		t.MaxLogs, err = strconv.ParseInt(value, 10, 64)
	case "max-bytes":
		t.MaxBytes, err = strconv.ParseInt(value, 10, 64)
	case "max-sessions":
		t.MaxSessions, err = strconv.ParseInt(value, 10, 64)
	default:
		return fmt.Errorf("unknown tenant field %q", field)
	}
	return err
}

// LoadFile merges a flat key=value file into the config. Blank lines and
// #-comments are ignored; keys are the flag spellings plus
// tenant.<name>.{token,max-logs,max-bytes,max-sessions}.
func (c *Config) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, found := strings.Cut(line, "=")
		if !found {
			return fmt.Errorf("config: %s:%d: not a key=value line: %q", path, i+1, line)
		}
		if err := c.Set(strings.TrimSpace(key), strings.TrimSpace(value)); err != nil {
			return fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
	}
	return nil
}

// EnvPrefix is the environment layer's variable prefix.
const EnvPrefix = "CLIO_"

// retiredEnvKeys are knobs that no longer exist. A file line or a flag
// naming one fails as unknown; the environment layer only looks up keys it
// knows, so without this list a stale variable in a unit file would be
// ignored in silence and the daemon would run a policy nobody chose.
var retiredEnvKeys = []string{"force-window"}

// EnvVar maps a config key to its environment variable name
// ("volume-blocks" → "CLIO_VOLUME_BLOCKS").
func EnvVar(key string) string {
	return EnvPrefix + strings.ToUpper(strings.ReplaceAll(key, "-", "_"))
}

// ApplyEnv merges CLIO_* environment variables via lookup (os.LookupEnv in
// the daemon; tests inject a map).
func (c *Config) ApplyEnv(lookup func(string) (string, bool)) error {
	for _, k := range keys {
		if v, ok := lookup(EnvVar(k.name)); ok {
			if err := c.Set(k.name, v); err != nil {
				return err
			}
		}
	}
	for _, key := range retiredEnvKeys {
		if _, ok := lookup(EnvVar(key)); ok {
			return fmt.Errorf("config: unknown key %q (%s is set)", key, EnvVar(key))
		}
	}
	return nil
}

// TenantList returns the tenant table as a slice sorted by name, the shape
// the server's SetTenants consumes.
func (c *Config) TenantList() []Tenant {
	out := make([]Tenant, 0, len(c.Tenants))
	for _, t := range c.Tenants {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Validate rejects configurations that must not reach the store. It returns
// the first problem found.
func (c *Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("config: "+format, args...)
	}
	if c.Store == "" {
		return bad("store is required (flag -store, key store, or %s)", EnvVar("store"))
	}
	if c.Shards < 0 {
		return bad("shards %d is negative", c.Shards)
	}
	if c.VolumeBlocks < 0 {
		return bad("volume-blocks %d is negative", c.VolumeBlocks)
	}
	if c.BlockSize < 0 {
		return bad("block-size %d is negative", c.BlockSize)
	}
	if c.CheckpointInterval < 0 {
		return bad("checkpoint-interval %d is negative", c.CheckpointInterval)
	}
	if c.SlowTrace < 0 {
		return bad("slow-trace %s is negative", c.SlowTrace)
	}
	if c.CompactInterval < 0 {
		return bad("compact-interval %s is negative", c.CompactInterval)
	}
	if c.CompactMaxLive < 0 || c.CompactMaxLive > 1 {
		return bad("compact-max-live %g outside (0,1] (0 = default)", c.CompactMaxLive)
	}
	if c.CompactMinHot < 0 {
		return bad("compact-min-hot %d is negative", c.CompactMinHot)
	}
	if c.DrainTimeout < 0 {
		return bad("drain-timeout %s is negative", c.DrainTimeout)
	}
	if c.Role != "leader" && c.Role != "follower" {
		return bad("role must be leader or follower, not %q", c.Role)
	}
	if c.Peers == "" {
		// Cluster knobs are meaningless without peers; accepting them
		// silently would hide a typo'd -peers from the operator.
		for _, key := range []string{"advertise", "role", "quorum"} {
			if c.IsSet(key) {
				return bad("%s set without peers (cluster mode needs -peers)", key)
			}
		}
	} else {
		if c.Quorum < 1 {
			return bad("quorum %d must be at least 1", c.Quorum)
		}
		if c.CompactInterval > 0 {
			return bad("compact-interval is not supported in cluster mode: the compactor deletes volume files a replica must mirror exactly")
		}
	}
	names := make([]string, 0, len(c.Tenants))
	for name := range c.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.Tenants[name]
		switch {
		case name == "" || strings.ContainsAny(name, "/ \t"):
			return bad("tenant name %q is not a path segment", name)
		case strings.HasPrefix(name, "."):
			return bad("tenant name %q collides with reserved system sublogs", name)
		case strings.Contains(name, "."):
			return bad("tenant name %q contains \".\", which separates a consumer group's tenant from its name", name)
		case t.Token == "":
			return bad("tenant %s has no token", name)
		case t.MaxLogs < 0 || t.MaxBytes < 0 || t.MaxSessions < 0:
			return bad("tenant %s has a negative quota (logs %d, bytes %d, sessions %d)",
				name, t.MaxLogs, t.MaxBytes, t.MaxSessions)
		}
	}
	return nil
}

// Reloadable reports whether key may change across a SIGHUP reload without a
// restart. Tenant keys (quotas, tokens, membership) and the knobs the
// daemon consults continuously are reloadable; store geometry, addresses
// and cluster membership are not.
func Reloadable(name string) bool {
	if _, _, ok := tenantKey(name); ok {
		return true
	}
	k := lookupKey(name)
	return k != nil && k.reloadable
}

// Diff lists the scalar keys whose values differ between c and other, in
// stable order. Tenant table changes are reported as the single pseudo-key
// "tenants".
func (c *Config) Diff(other *Config) []string {
	var out []string
	for _, k := range keys {
		// The fields are pointers to comparable scalars.
		if reflect.ValueOf(k.field(c)).Elem().Interface() != reflect.ValueOf(k.field(other)).Elem().Interface() {
			out = append(out, k.name)
		}
	}
	if !tenantsEqual(c.Tenants, other.Tenants) {
		out = append(out, "tenants")
	}
	return out
}

func tenantsEqual(a, b map[string]*Tenant) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ta := range a {
		tb := b[name]
		if tb == nil || *ta != *tb {
			return false
		}
	}
	return true
}
