"""Ray Data stage UDFs (map_batches functions and callable classes)."""
