package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hetdsm/internal/checkpoint"
	"hetdsm/internal/wire"
)

// Coordinated cluster checkpoints: at a barrier open the home's state is a
// consistent cut of the whole computation — every rank's updates for the
// closing generation are applied, no lock is held by a well-synchronized
// program, and each rank's logical position is simply "about to leave
// barrier generation N". A cut therefore needs only the home's state image
// (home.snap, the same framed RepInit record as wal.snap), one tiny
// checkpoint.Checkpoint per rank recording its platform and generation, and
// a manifest naming the generation. Restore is heterogeneous: the home image
// converts receiver-makes-right, and fresh replicas are reseeded in full at
// each rank's first acquire.

const (
	manifestName = "manifest.json"
	homeSnapName = "home.snap"
)

// Cut is a loaded cluster checkpoint.
type Cut struct {
	// Gen is the barrier generation the cut was taken at; workloads
	// resume at phase Gen.
	Gen uint64
	// Snap is the home's state at the cut, its master image in the
	// checkpointed home's representation.
	Snap *wire.HomeImage
	// Ranks maps each rank to its thread checkpoint (platform + PC=Gen).
	Ranks map[int32]*checkpoint.Checkpoint
}

// cutManifest is the durable completion marker: it is written (atomically)
// last, so a crash mid-cut leaves no loadable checkpoint.
type cutManifest struct {
	Gen   uint64  `json:"gen"`
	Epoch uint64  `json:"epoch"`
	Ranks []int32 `json:"ranks"`
}

// WriteCut persists a coordinated cluster checkpoint: the home image,
// one thread checkpoint per rank (platform + generation as the logical
// PC), and the manifest last. Safe to call from a dsd CheckpointSink (it
// only writes files). Successive cuts overwrite in place; a torn write is
// harmless because the manifest rename commits the cut atomically.
func WriteCut(dir string, snap *wire.HomeImage, gen uint64, rankPlats map[int32]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	init := &wire.Replication{Event: wire.RepInit, Rank: -1, Mutex: -1, Epoch: snap.Epoch, Home: snap}
	if err := writeFileSync(filepath.Join(dir, homeSnapName), frame(init)); err != nil {
		return err
	}
	man := cutManifest{Gen: gen, Epoch: snap.Epoch}
	for rank, plat := range rankPlats {
		ck := &checkpoint.Checkpoint{Platform: plat, PC: int64(gen)}
		if err := ck.Validate(); err != nil {
			return fmt.Errorf("wal: rank %d checkpoint: %w", rank, err)
		}
		if err := writeFileSync(filepath.Join(dir, rankFile(rank)), ck.Encode()); err != nil {
			return err
		}
		man.Ranks = append(man.Ranks, rank)
	}
	sort.Slice(man.Ranks, func(i, j int) bool { return man.Ranks[i] < man.Ranks[j] })
	mb, err := json.Marshal(&man)
	if err != nil {
		return err
	}
	return writeFileSync(filepath.Join(dir, manifestName), mb)
}

// LoadCut loads the cluster checkpoint in dir.
func LoadCut(dir string) (*Cut, error) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("wal: no cluster checkpoint in %s: %w", dir, err)
	}
	var man cutManifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return nil, fmt.Errorf("wal: manifest: %w", err)
	}
	init, err := readSnap(filepath.Join(dir, homeSnapName))
	if err != nil {
		return nil, err
	}
	cut := &Cut{Gen: man.Gen, Snap: init.Home, Ranks: make(map[int32]*checkpoint.Checkpoint, len(man.Ranks))}
	for _, rank := range man.Ranks {
		cb, err := os.ReadFile(filepath.Join(dir, rankFile(rank)))
		if err != nil {
			return nil, err
		}
		ck, err := checkpoint.Decode(cb)
		if err != nil {
			return nil, fmt.Errorf("wal: rank %d checkpoint: %w", rank, err)
		}
		if uint64(ck.PC) != man.Gen {
			return nil, fmt.Errorf("wal: rank %d checkpoint at generation %d, manifest says %d", rank, ck.PC, man.Gen)
		}
		cut.Ranks[rank] = ck
	}
	return cut, nil
}

func rankFile(rank int32) string { return fmt.Sprintf("rank%d.ckpt", rank) }

// writeFileSync writes data to path atomically: tmp file, fsync, rename.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
