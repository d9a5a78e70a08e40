"""The pilot manager: jobs, the scheduler, its launcher and workers, and the `pj` service."""
