package dist

// Exposed to the external tests: the coordinator's row placement and the
// row cap of one model-replication stream.
var ShardOf = shardOf

const ReplicateRows = replicateRows
