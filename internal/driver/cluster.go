package driver

// ClusterConfig and RunCluster are the names benchmark/ (frozen for this
// change) still calls the cluster target by; nothing else references them.
// The next benchmark change deletes them.
type ClusterConfig = Config

func RunCluster(cfg Config) (*Report, error) { return Run(cfg) }
