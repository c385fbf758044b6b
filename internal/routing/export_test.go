package routing

// Helpers the external routing_test package needs.

// ClearMirrorPort removes the mirror-config override for (sw, port),
// restoring the port to the snapshot default. The governor never clears
// an override (it restores a port by setting one); the mirror oracle
// does, to check a commit that shrinks the override set.
func (tx *Tx) ClearMirrorPort(sw, port int) {
	k := mirrorKey{int32(sw), int32(port)}
	if _, ok := tx.snap.mirrorCfg[k]; ok {
		tx.SetMirrorPort(sw, port, MirrorPortConfig{}) // owns the map copy-on-write
		delete(tx.snap.mirrorCfg, k)
	}
}
