package cache

// RegionLiveErr exposes the region-live invariant (regionLiveErr) to the
// package's external tests. Call it under the shard lock.
var RegionLiveErr = regionLiveErr
