package store

// verify.go implements offline inspection of a data directory — the engine
// behind the cvstore CLI. These functions open the directory read-only (no
// WAL handle, no initialization) so they are safe against a directory a
// daemon is actively writing, up to the usual caveat that a snapshot being
// installed concurrently may appear as either the old or the new manifest
// state.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

// Info prints a human-readable summary of the directory: format version,
// WAL size and record count, and every retained snapshot.
func Info(dir string, w io.Writer) error {
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "data directory %s (format v%d)\n", dir, man.Version)
	scan, err := scanWAL(filepath.Join(dir, man.WAL))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wal %s: %d records, %d tuples, %d valid bytes", man.WAL, scan.Records, scan.Tuples, scan.ValidBytes)
	if scan.DroppedBytes > 0 {
		fmt.Fprintf(w, " (+%d torn tail bytes)", scan.DroppedBytes)
	}
	fmt.Fprintln(w)
	if len(scan.Batches) > 0 {
		fmt.Fprintf(w, "wal epochs %d..%d\n", scan.Batches[0].Epoch, scan.Batches[len(scan.Batches)-1].Epoch)
	}
	fmt.Fprintf(w, "snapshots: %d\n", len(man.Snapshots))
	for _, e := range man.Snapshots {
		fmt.Fprintf(w, "  epoch %-8d %s  %d bytes  crc %08x\n", e.Epoch, e.File, e.Bytes, e.CRC32)
	}
	return nil
}

// Verify checks every artifact of the directory: the manifest parses, every
// snapshot restores to a working checker with matching length and CRC, the
// constraint text re-parses, and the WAL scans cleanly. It reports each
// finding to w and returns an error describing the first class of damage
// found, wrapping the first failure's error (a torn WAL tail alone is not
// damage — it is what recovery is for — but it is reported).
func Verify(dir string, w io.Writer) error {
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest: ok (format v%d, %d snapshots)\n", man.Version, len(man.Snapshots))
	var failures []string
	var first error
	for _, e := range man.Snapshots {
		counts, err := verifySnapshot(dir, e)
		if err != nil {
			fmt.Fprintf(w, "snapshot epoch %d (%s): FAIL: %v\n", e.Epoch, e.File, err)
			failures = append(failures, fmt.Sprintf("snapshot %s", e.File))
			first = cmp.Or(first, err)
			continue
		}
		fmt.Fprintf(w, "snapshot epoch %d (%s): ok%s\n", e.Epoch, e.File, counts)
	}
	scan, err := scanWAL(filepath.Join(dir, man.WAL))
	if err != nil {
		fmt.Fprintf(w, "wal %s: FAIL: %v\n", man.WAL, err)
		failures = append(failures, "wal")
		first = cmp.Or(first, err)
	} else {
		fmt.Fprintf(w, "wal %s: %d records ok", man.WAL, scan.Records)
		if scan.DroppedBytes > 0 {
			fmt.Fprintf(w, ", %d-byte torn tail (dropped on next recovery)", scan.DroppedBytes)
		}
		fmt.Fprintln(w)
	}
	if len(failures) > 0 {
		return fmt.Errorf("store: verification failed for %s: %w", strings.Join(failures, ", "), first)
	}
	return nil
}

// verifySnapshot restores one snapshot with the default runtime options, as
// recovery would, and exercises the restored checker far enough to prove the
// image is coherent. It reports each index's node count as
// ", index NAME N nodes", the figure a server's /statsz gives at that epoch.
func verifySnapshot(dir string, e SnapshotEntry) (counts string, err error) {
	chk, _, _, err := restoreFile(dir, e, core.Options{})
	if err != nil {
		return "", err
	}
	// Counting walks every node of every index, so a dangling ref surfaces
	// here, not at first use after a recovery.
	nodes := chk.NodeCounts()
	for _, snap := range chk.SnapshotIndices() {
		counts += fmt.Sprintf(", index %s %d nodes", snap.Name, nodes[snap.Name])
	}
	return counts, nil
}

// Compact removes files the manifest does not reference: leftover temp
// files from interrupted atomic writes and snapshot files orphaned by a
// crash between manifest write and prune. Only files matching the store's
// own naming patterns are touched.
func Compact(dir string, w io.Writer) error {
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	referenced := map[string]bool{ManifestName: true, man.WAL: true}
	for _, e := range man.Snapshots {
		referenced[e.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: listing data directory: %w", err)
	}
	var removed []string
	for _, e := range entries {
		name := e.Name()
		if referenced[name] {
			continue
		}
		ours := strings.HasPrefix(name, ".tmp-") ||
			(strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".cvsnap"))
		if !ours {
			fmt.Fprintf(w, "skipping unrecognized file %s\n", name)
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: removing %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "removed %s\n", name)
	}
	fmt.Fprintf(w, "compacted: %d files removed\n", len(removed))
	return nil
}
