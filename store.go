package clio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"clio/internal/archive"
	"clio/internal/core"
	"clio/internal/shard"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// Directory layout for file-backed stores: one file per volume plus ONE
// NVRAM sidecar file, holding everything staged ahead of the volumes (the
// tail block and the sealed blocks awaiting their device write), so it is the
// one file beside the volumes a backup has to carry (core.FileNVRAM.CopyTo).
// The volume files enforce the append-only policy in
// software — "the append-only storage model is appropriate even if the
// backing storage medium happens to be rewriteable" (§6).
//
// A sharded store nests the same layout one level down: shard-K/vol-*.clio
// with a per-shard NVRAM sidecar, one subdirectory per shard. A store
// created with one shard keeps the flat layout, so pre-sharding store
// directories reopen unchanged.
//
// The store root also holds the manifest, which makes the directory
// self-describing the way block 0 makes a volume (§2.1), and a cluster
// node's persisted term. Only this file spells any of these names.
const (
	manifestFile   = "store.clio"
	termFile       = "term.clio"
	volPrefix      = "vol-"
	volSuffix      = ".clio"
	nvramFile      = "nvram.clio"
	shardDirPrefix = "shard-"
	// Per shard directory, the reclamation subsystem keeps a cold/ archive
	// directory holding demoted volume images and a compact.clio sidecar
	// holding the compactor's committed state.
	coldDirName = "cold"
	compactFile = "compact.clio"
)

// Sentinel errors for the file-backed store helpers, matchable with
// errors.Is through any wrapping the helpers add.
var (
	// ErrStoreExists reports a create into a directory that already holds
	// a log store (flat or sharded).
	ErrStoreExists = errors.New("clio: directory already contains a log store")
	// ErrNoStore reports an open of a directory that holds no log store.
	ErrNoStore = errors.New("clio: no log store in directory")
)

// DirOptions configures a file-backed store.
type DirOptions struct {
	// Options embeds the service options. NVRAM and Allocate are set by the
	// helpers and must be left nil.
	//
	// BlockSize, VolumeBlocks and Shards are the store's geometry. A create
	// records them in the manifest (zero takes the default); from then on
	// zero means the recorded value and any other value than it is refused.
	Options
	// VolumeBlocks is the capacity of each volume file in blocks; a create
	// defaults it to 1<<20 (1 GiB at the default block size, the capacity
	// class of a 12" optical platter side).
	VolumeBlocks int
	// SyncEvery makes every sealed block fsync.
	SyncEvery bool
	// Shards is the number of hash partitions; a create defaults it to 1,
	// which keeps the flat single-sequence layout.
	Shards int
}

func volPath(dir string, index uint32) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", volPrefix, index, volSuffix))
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, shardDirPrefix+strconv.Itoa(i))
}

// geometry is what a store's manifest records: the three values every opener
// must agree on for the volume files to map to the same global blocks.
type geometry struct {
	blockSize, volumeBlocks, shards int
}

// geometry returns the geometry o asks a new store to have.
func (o DirOptions) geometry() geometry {
	g := geometry{o.BlockSize, o.VolumeBlocks, o.Shards}
	if g.blockSize <= 0 {
		g.blockSize = wodev.DefaultBlockSize
	}
	if g.volumeBlocks <= 0 {
		g.volumeBlocks = 1 << 20
	}
	if g.shards <= 0 {
		g.shards = 1
	}
	return g
}

// assert refuses a geometry value set in o that contradicts the store's.
func (g geometry) assert(dir string, o DirOptions) (err error) {
	check := func(key string, have, given int) {
		if err == nil && given > 0 && given != have {
			err = fmt.Errorf("clio: store %s has %s %d, not %d", dir, key, have, given)
		}
	}
	check("block-size", g.blockSize, o.BlockSize)
	check("volume-blocks", g.volumeBlocks, o.VolumeBlocks)
	check("shards", g.shards, o.Shards)
	return err
}

// The manifest is flat "key = value" text closed by a checksum line over
// everything before it, so a file cut short at any byte fails to load (and
// reads as absent) instead of loading as a different geometry.
const (
	manifestBody = "clio-store = 1\nblock-size = %d\nvolume-blocks = %d\nshards = %d\n"
	manifestSum  = "checksum = %08x\n"
	manifestTail = len("checksum = 00000000\n")
)

func (g geometry) encode() []byte {
	body := fmt.Sprintf(manifestBody, g.blockSize, g.volumeBlocks, g.shards)
	return []byte(body + fmt.Sprintf(manifestSum, wire.Checksum([]byte(body))))
}

// parseManifest decodes a manifest; ok is false for a torn or foreign file.
func parseManifest(data []byte) (g geometry, ok bool) {
	cut := len(data) - manifestTail
	if cut < 0 || string(data[cut:]) != fmt.Sprintf(manifestSum, wire.Checksum(data[:cut])) {
		return g, false
	}
	n, err := fmt.Sscanf(string(data[:cut]), manifestBody, &g.blockSize, &g.volumeBlocks, &g.shards)
	return g, err == nil && n == 3 && g.blockSize > 0 && g.volumeBlocks > 0 && g.shards > 0
}

// manifest is the store's geometry file, written (atomically) at the create,
// or at the first open of a store laid out before manifests existed.
func manifest(dir string) *core.FileState {
	return core.NewFileState(filepath.Join(dir, manifestFile))
}

// loadManifest reads dir's manifest; ok is false when it has none, or a torn
// one, which is the same thing.
func loadManifest(dir string) (g geometry, ok bool, err error) {
	data, err := manifest(dir).Load()
	if err == nil {
		g, ok = parseManifest(data)
	}
	return g, ok, err
}

// openVolume opens the volume file at path, creating it if absent, with the
// store's geometry. o must carry it (openShards fills it in).
func (o DirOptions) openVolume(path string) (wodev.Device, error) {
	return wodev.OpenFile(path, wodev.FileOptions{
		BlockSize: o.BlockSize,
		Capacity:  o.VolumeBlocks,
		SyncEvery: o.SyncEvery,
	})
}

// dirColdTier wires the reclamation subsystem for one shard directory:
// demoted volume images go to the cold archive beside the volumes they
// replace (<dir>/cold, so each shard's images, numbered from zero, stay
// apart), the compaction sidecar lives beside the NVRAM sidecar, and
// releasing a demoted volume deletes its local file — the act that actually
// reclaims the space.
func dirColdTier(dir string) *core.ColdTier {
	return &core.ColdTier{
		Backend: archive.NewDir(filepath.Join(dir, coldDirName)),
		State:   core.NewFileState(filepath.Join(dir, compactFile)),
		Release: func(index uint32) error {
			err := os.Remove(volPath(dir, index))
			if os.IsNotExist(err) {
				return nil
			}
			return err
		},
	}
}

// openShard assembles one shard directory: its volume devices — with
// create, a fresh volume 0; otherwise every volume file, in index order —
// and the service options wired to the files beside them: the NVRAM
// sidecar, the allocator that mints successor volume files and, unless the
// caller brought its own, the cold tier. It is the one place
// a shard is put together; CreateStore, OpenStore and OpenRaw all come
// through it.
func openShard(dir string, o DirOptions, create bool) ([]wodev.Device, core.Options, error) {
	opt := o.Options
	opt.NVRAM = core.NewFileNVRAM(filepath.Join(dir, nvramFile))
	opt.Allocate = func(_ volume.SeqID, index uint32, _ uint64, _ int) (wodev.Device, error) {
		return o.openVolume(volPath(dir, index))
	}
	if opt.Cold == nil {
		opt.Cold = dirColdTier(dir)
	}
	if create {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, opt, err
		}
		dev, err := o.openVolume(volPath(dir, 0))
		if err != nil {
			return nil, opt, fmt.Errorf("clio: create volume in %s: %w", dir, err)
		}
		return []wodev.Device{dev}, opt, nil
	}
	names, err := listVolumes(dir)
	if err != nil {
		return nil, opt, err
	}
	if len(names) == 0 {
		return nil, opt, fmt.Errorf("%w: no volumes in %s", ErrNoStore, dir)
	}
	var devs []wodev.Device
	for _, name := range names {
		dev, err := o.openVolume(filepath.Join(dir, name))
		if err != nil {
			closeDevs(devs)
			return nil, opt, fmt.Errorf("clio: open volume %s: %w", filepath.Join(dir, name), err)
		}
		devs = append(devs, dev)
	}
	return devs, opt, nil
}

// storeShards is a store directory's assembled shards, in shard order.
type storeShards struct {
	o    DirOptions // the caller's options with the store's geometry filled in
	dirs []string
	devs [][]wodev.Device
	opts []core.Options
}

func (a *storeShards) close() {
	for _, devs := range a.devs {
		closeDevs(devs)
	}
}

// openShards assembles every shard of the store in dir. With create it lays
// out fresh shards — dir itself for one (the flat layout), shard-K below it
// for more — in a directory that must not already hold a store, and records
// o's geometry in the manifest before the first volume file exists.
// Otherwise it opens the layout it finds at the geometry the manifest
// records, refusing a value in o that contradicts it. A store without a
// manifest (older, or laid out by hand) opens at o's geometry as it always
// did and is given one — once every shard's volumes mounted at that capacity,
// so a wrong guess is never recorded.
func openShards(dir string, o DirOptions, create bool) (*storeShards, error) {
	a := &storeShards{dirs: []string{dir}}
	// g is the geometry to open at; recorded, whether the manifest holds it.
	g, recorded := o.geometry(), create
	if create {
		if names, err := listVolumes(dir); err != nil {
			return nil, err
		} else if len(names) > 0 {
			return nil, fmt.Errorf("%w: %s holds %d volumes", ErrStoreExists, dir, len(names))
		}
		if dirs, err := ShardDirs(dir); err != nil {
			return nil, err
		} else if dirs[0] != dir {
			return nil, fmt.Errorf("%w: %s holds %d shard directories", ErrStoreExists, dir, len(dirs))
		}
		if g.shards > 1 {
			a.dirs = make([]string, g.shards)
			for i := range a.dirs {
				a.dirs[i] = shardDir(dir, i)
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := manifest(dir).Save(g.encode()); err != nil {
			return nil, err
		}
	} else {
		var err error
		if a.dirs, err = ShardDirs(dir); err != nil {
			return nil, err
		}
		g.shards = len(a.dirs) // what adoption records; a manifest overrides it
		if have, ok, err := loadManifest(dir); err != nil {
			return nil, err
		} else if ok {
			g, recorded = have, true
		}
	}
	a.o = o
	a.o.BlockSize, a.o.VolumeBlocks = g.blockSize, g.volumeBlocks
	for i, sd := range a.dirs {
		devs, opt, err := openShard(sd, a.o, create)
		if err == nil && !recorded {
			_, err = volume.MountSet(devs) // ErrNotContiguous at a wrong capacity
		}
		if err != nil {
			closeDevs(devs)
			a.close()
			if len(a.dirs) > 1 {
				err = fmt.Errorf("clio: shard %d: %w", i, err)
			}
			return nil, err
		}
		a.devs = append(a.devs, devs)
		a.opts = append(a.opts, opt)
	}
	// Checked after the open, so that a directory holding no store at all
	// says so (ErrNoStore) whatever geometry was asserted.
	err := g.assert(dir, o)
	if err == nil && g.shards != len(a.dirs) {
		err = fmt.Errorf("clio: store %s records %d shards but holds %d shard directories", dir, g.shards, len(a.dirs))
	}
	if err == nil && !recorded {
		err = manifest(dir).Save(g.encode())
	}
	if err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

func closeDevs(devs []wodev.Device) {
	for _, d := range devs {
		d.Close()
	}
}

// CreateStore initializes a new file-backed store in dir with
// o.Shards hash partitions and returns the running sharded store. One
// shard produces the flat single-sequence layout; more produce
// shard-K subdirectories, each a complete volume sequence with its own
// NVRAM sidecar.
func CreateStore(dir string, o DirOptions) (*Store, error) {
	a, err := openShards(dir, o, true)
	if err != nil {
		return nil, err
	}
	svcs := make([]*core.Service, len(a.devs))
	for i := range svcs {
		if svcs[i], err = core.New(a.devs[i][0], a.opts[i]); err != nil {
			for _, s := range svcs[:i] {
				s.Close()
			}
			a.close()
			return nil, fmt.Errorf("clio: create shard %d: %w", i, err)
		}
	}
	return shard.New(svcs)
}

// OpenStore opens an existing file-backed store in dir, detecting the
// layout: shard-K subdirectories open as a sharded store (recovering all
// shards concurrently, as server initialization does, §2.3.1), a flat
// volume directory opens as one shard. The geometry is the store's own: o's
// may stay zero, and a value that contradicts the manifest is an error.
func OpenStore(dir string, o DirOptions) (*Store, error) {
	a, err := openShards(dir, o, false)
	if err != nil {
		return nil, err
	}
	st, err := shard.Open(a.devs, a.opts)
	if err != nil {
		a.close() // shard.Open closed the services it opened, not their devices
		return nil, err
	}
	return st, nil
}

func listVolumes(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasPrefix(n, volPrefix) && strings.HasSuffix(n, volSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// ShardDirs returns the directories holding a store's volume files: the
// shard-K subdirectories of a sharded layout, in shard order — they must
// number contiguously from 0; a gap means a damaged or foreign layout — or
// dir itself for the flat (1-shard) layout, which is also what a missing or
// empty dir reads as.
func ShardDirs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	idx := make(map[int]string)
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() || !strings.HasPrefix(n, shardDirPrefix) {
			continue
		}
		k, err := strconv.Atoi(strings.TrimPrefix(n, shardDirPrefix))
		if err != nil || k < 0 {
			continue
		}
		idx[k] = filepath.Join(dir, n)
	}
	if len(idx) == 0 {
		return []string{dir}, nil
	}
	out := make([]string, 0, len(idx))
	for i := 0; i < len(idx); i++ {
		d, ok := idx[i]
		if !ok {
			return nil, fmt.Errorf("clio: %s shard directories are not contiguous (missing shard-%d of %d)",
				dir, i, len(idx))
		}
		out = append(out, d)
	}
	return out, nil
}

// RawStore is the unmounted layout of a file-backed store: the per-shard
// device, NVRAM sidecar and cold archive handles, without a service
// recovered over them. The replication layer consumes this shape — a
// follower holds raw devices its leader writes through it, and mounts
// (recovers) a service over them only if promoted — and so do the offline
// tools (clio fsck, du, backup), which read the media the daemon would mount.
type RawStore struct {
	// Dirs is each shard's directory: the store directory itself for the
	// flat layout, its per-shard subdirectories otherwise.
	Dirs    []string
	Devices [][]wodev.Device
	NVRAMs  []NVRAM // each a *core.FileNVRAM
	// Cold is each shard's cold archive, holding the volumes the compactor
	// demoted.
	Cold []archive.Backend
	// Opts is the per-shard service options derived from the DirOptions and
	// the store's geometry (block size, checkpoint interval, ...). NVRAM and
	// Allocate are left nil: the replication node installs its own per-shard
	// NVRAM, and a replicated store does not mint volumes outside the
	// leader's ordering.
	Opts Options
	// TermPath is where a cluster node on this store persists its term.
	TermPath string

	mu sync.Mutex
	o  DirOptions
}

// OpenRaw opens (create=false) or lays out fresh (create=true) the devices
// and NVRAM sidecars of a file-backed store without mounting it. A fresh
// layout holds one empty volume file per shard: on a replication leader the
// node formats it at start, on a follower the leader's stream fills it,
// header block included.
func OpenRaw(dir string, o DirOptions, create bool) (*RawStore, error) {
	a, err := openShards(dir, o, create)
	if err != nil {
		return nil, err
	}
	r := &RawStore{
		Dirs: a.dirs, Devices: a.devs, Opts: a.o.Options, o: a.o,
		TermPath: filepath.Join(dir, termFile),
	}
	for _, opt := range a.opts {
		r.NVRAMs = append(r.NVRAMs, opt.NVRAM)
		r.Cold = append(r.Cold, opt.Cold.Backend)
	}
	return r, nil
}

// Reset discards one device's on-disk state and returns a blank replacement
// — the replication node's hook for a diverged replica that must re-sync
// from block zero. The old handle is closed and its file recreated.
func (r *RawStore) Reset(shard, dev int) (wodev.Device, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= len(r.Devices) || dev < 0 || dev >= len(r.Devices[shard]) {
		return nil, fmt.Errorf("clio: reset: no device (shard %d, dev %d)", shard, dev)
	}
	r.Devices[shard][dev].Close()
	path := volPath(r.Dirs[shard], uint32(dev))
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	fresh, err := r.o.openVolume(path)
	if err != nil {
		return nil, err
	}
	r.Devices[shard][dev] = fresh
	return fresh, nil
}

// Close releases the device handles. Harmless after the devices have been
// handed to a replication node that was itself shut down.
func (r *RawStore) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ds := range r.Devices {
		closeDevs(ds)
	}
}
