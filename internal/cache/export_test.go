package cache

// RegionLiveErr exposes the region-live invariant (regionLiveErr) to the
// package's external tests. Call it under the shard lock.
var RegionLiveErr = regionLiveErr

// collideHashes narrows c's index hash to 4 bits, so that keys share hashes
// all the time: the collision oracle's seam. Call it before the first insert.
func collideHashes(c *Cache) { c.idx.hashMask = 0xF }

// OpenBuffer returns the open region's id and buffer.
func OpenBuffer(c *Cache) (id int, buf []byte) {
	return c.regions.open, c.regions.meta[c.regions.open].buf
}

// imageOf returns region id's image: nil without images, and for a region
// that has none.
func (ix *index) imageOf(id uint32) *image {
	if ix.images == nil {
		return nil
	}
	return ix.images[id].Load()
}
