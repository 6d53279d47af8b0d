"""Query-conditioned time-frequency source separation trained with
reinforcement learning against multimodal embedding rewards.

Subpackage map:

- ``spectral``   waveform <-> spectrogram conversion, masking, reconstruction
- ``wavio``      WAV file reader/writer with a sample-rate policy
- ``special``    log-gamma / digamma / trigamma numerics
- ``policy``     factorized Beta mask distribution (sampling, log-density,
                 entropy, KL, log-density and entropy gradients)
- ``separator``  trainable mask-proposal network with exact gradients
- ``optim``      AdamW with global-norm gradient clipping
- ``rl``         clipped-surrogate policy optimization loop; the clip is the
                 trust region, with no KL penalty
- ``reward``     mask -> waveform -> embedding -> cosine rewards, and the one
                 map from a query modality or reward mode to a vector: one
                 modality's, their mixup or their elementwise product
- ``embed``      embedding stores, synthetic oracle embedders, projection heads
- ``align``      three-stage contrastive alignment curriculum
- ``metrics``    SI-SDR / SI-SDRi, permutation assignment, SDR/SIR/SAR
- ``synthdata``  seeded synthetic dataset generation
- ``pipeline``   dataset loading and item preparation for training/eval
- ``checkpoint`` the checkpoint container, and the one checked reader every
                 checkpoint kind loads through
- ``errors``     shared exception types and the config value check
- ``cli``        command-line entry points
"""

__version__ = "0.1.0"
