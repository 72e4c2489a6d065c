"""Time-series and spatial models for the PRESTO prediction engine.

Section 3 of the paper asks for models that are *asymmetric* — expensive to
build at the proxy, nearly free to verify at the sensor — and that capture
the statistics of the underlying physical process.  This package provides
the families the paper names: seasonal (time-of-day/seasonal effects),
"simple regression techniques and time-series analysis" (AR / ARIMA,
implemented from scratch on numpy since statsmodels is unavailable offline),
a Markov model for the temporal axis, and a multivariate Gaussian for the
spatial axis (the BBQ[5] approach).
"""

from repro.timeseries.ar import ARModel, fit_ar_yule_walker
from repro.timeseries.arima import ARIMAModel
from repro.timeseries.base import Forecast, ModelSpec, TimeSeriesModel
from repro.timeseries.gaussian import MultivariateGaussianModel
from repro.timeseries.markov import MarkovChainModel
from repro.timeseries.sarima import SeasonalArimaModel
from repro.timeseries.seasonal import SeasonalProfileModel
from repro.timeseries.selection import aic, bic, select_best_model

#: the model families a replica can carry, by wire tag: family ``i`` is
#: tag ``i + 1``, and tag 0 stands for no model
MODEL_FAMILIES: tuple[type[TimeSeriesModel], ...] = (
    ARModel,
    ARIMAModel,
    SeasonalProfileModel,
    MarkovChainModel,
    SeasonalArimaModel,
)

__all__ = [
    "MODEL_FAMILIES",
    "Forecast",
    "ModelSpec",
    "TimeSeriesModel",
    "SeasonalProfileModel",
    "ARModel",
    "fit_ar_yule_walker",
    "ARIMAModel",
    "MarkovChainModel",
    "MultivariateGaussianModel",
    "SeasonalArimaModel",
    "aic",
    "bic",
    "select_best_model",
]
