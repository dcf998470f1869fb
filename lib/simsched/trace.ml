let disabled = Pbca_obs.Trace.disabled
